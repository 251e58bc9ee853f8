//! Crash-safety for the movement database.
//!
//! The movement store is append-only, so its durable form is simple:
//! each WAL record is one wire-encoded [`MovementRecord`], and a
//! snapshot is the full table in insertion order. Replaying appends
//! through [`MovementStore::append`] rebuilds the per-robot index as a
//! side effect — no index state needs logging.

use crate::movement::{MovementRecord, MovementStore};
use pmp_durable::{Durable, DurableError};
use pmp_wire::{Wire, Writer};

/// The WAL namespace owned by the movement store.
pub const NAMESPACE: &str = "store.movements";

impl MovementStore {
    /// The wire payload to log for one appended record (pair with
    /// [`MovementStore::append`] at the call site).
    #[must_use]
    pub fn wal_payload(record: &MovementRecord) -> Vec<u8> {
        pmp_wire::to_bytes(record)
    }
}

impl Durable for MovementStore {
    fn namespace(&self) -> &'static str {
        NAMESPACE
    }

    /// The bytes of `to_bytes(&Vec<MovementRecord>)` over the table in
    /// insertion order, encoded from the rows by reference.
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varu64(self.len() as u64);
        for (_, _, r) in self.table().iter() {
            r.encode(&mut w);
        }
        w.into_bytes()
    }

    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let records: Vec<MovementRecord> = pmp_wire::from_bytes(bytes)?;
        *self = MovementStore::new();
        for r in records {
            self.append(r);
        }
        Ok(())
    }

    fn apply_record(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        let record: MovementRecord = pmp_wire::from_bytes(payload)?;
        self.append(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(robot: &str, arg: i64, at: u64) -> MovementRecord {
        MovementRecord {
            robot: robot.into(),
            device: "motor:x".into(),
            command: "rotate".into(),
            args: vec![arg],
            issued_at: at,
            duration_ns: 100,
        }
    }

    #[test]
    fn snapshot_restore_rebuilds_table_and_index() {
        let mut live = MovementStore::new();
        live.append(rec("r1", 30, 10));
        live.append(rec("r2", -30, 20));
        live.append(rec("r1", 15, 30));

        let mut restored = MovementStore::new();
        restored.restore_snapshot(&live.snapshot_bytes()).unwrap();
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.by_robot("r1").len(), 2);
        assert_eq!(restored.robots(), ["r1", "r2"]);
        assert_eq!(restored.state_digest(), live.state_digest());
    }

    #[test]
    fn snapshot_bytes_match_the_cloned_per_element_encoding() {
        let mut live = MovementStore::new();
        for i in 0..3000u64 {
            let mut r = rec(&format!("robot:{}:1", i % 16), i as i64 - 1500, i * 7);
            r.args = (0..i % 5).map(|a| a as i64 * 1000).collect();
            live.append(r);
        }
        // The construction `snapshot_bytes` replaced: clone every row,
        // then encode the vector with the per-element loop.
        let rows: Vec<MovementRecord> = live.table().iter().map(|(_, _, r)| r.clone()).collect();
        let mut w = Writer::new();
        w.put_varu64(rows.len() as u64);
        for r in &rows {
            r.encode(&mut w);
        }
        let reference = w.into_bytes();
        assert_eq!(pmp_wire::to_bytes(&rows), reference);
        assert_eq!(live.snapshot_bytes(), reference);
        assert_eq!(
            MovementStore::new().snapshot_bytes(),
            pmp_wire::to_bytes(&Vec::<MovementRecord>::new())
        );
    }

    #[test]
    fn wal_replay_matches_direct_appends() {
        let mut live = MovementStore::new();
        let mut replayed = MovementStore::new();
        for (robot, arg, at) in [("r1", 1, 5), ("r2", 2, 6), ("r1", 3, 7)] {
            let r = rec(robot, arg, at);
            replayed
                .apply_record(&MovementStore::wal_payload(&r))
                .unwrap();
            live.append(r);
        }
        assert_eq!(replayed.state_digest(), live.state_digest());
    }

    #[test]
    fn garbage_payload_is_an_error_not_a_panic() {
        let mut s = MovementStore::new();
        assert!(s.apply_record(&[0xff, 0x01]).is_err());
        assert!(s.restore_snapshot(&[0xff]).is_err());
    }
}
