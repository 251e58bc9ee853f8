//! pmp-chaos: deterministic chaos simulation for the platform.
//!
//! FoundationDB-style simulation testing, scaled to this repo: a seed
//! compiles into an explicit [`script::Scenario`] (topology churn,
//! extension distribution, link loss, partitions, base crashes, disk
//! faults), the [`exec`] layer replays it against the real
//! [`pmp_core::Platform`] under the serial or parallel driver, the
//! [`oracle`] layer checks global invariants at every pump barrier,
//! and failures are minimized by [`shrink()`] and committed as
//! [`repro`] files that CI replays forever.
//!
//! The pipeline end to end:
//!
//! ```text
//! seed ──gen──▶ Scenario ──exec──▶ RunReport{violations}
//!                  ▲                        │ failing
//!                  └──────── shrink ◀───────┘
//!                              │ minimal
//!                              ▼
//!                        .repro file ──▶ tests/chaos_repros.rs
//! ```
//!
//! Everything is deterministic: same seed, same bytes out, regardless
//! of driver, thread count, or host. See DESIGN.md §12 for the
//! invariant catalog and the soundness notes behind each slack window.

#![warn(missing_docs)]

pub mod differential;
pub mod exec;
pub mod gen;
pub mod oracle;
pub mod repro;
pub mod script;
pub mod shrink;
pub mod soak;

pub use differential::differential_check;
pub use exec::{run, run_cross, CrossReport, DriverKind, RunReport};
pub use gen::{generate, GenConfig};
pub use oracle::Violation;
pub use repro::{load, save};
pub use script::{CatalogEntry, ExtKind, Op, Scenario, Step, Topology};
pub use shrink::{shrink, ShrinkStats};
pub use soak::{soak, SoakConfig};

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole determinism claim, in-crate: one seed, two runs,
    /// identical reports.
    #[test]
    fn same_seed_same_report() {
        let sc = generate(1, &GenConfig::default());
        let a = run(&sc, DriverKind::Serial);
        let b = run(&sc, DriverKind::Serial);
        assert_eq!(a, b);
    }

    /// And across drivers: the cross oracle finds nothing on a healthy
    /// seed.
    #[test]
    fn serial_and_parallel_agree_on_a_quiet_seed() {
        let sc = generate(2, &GenConfig::default());
        let cross = run_cross(&sc);
        assert_eq!(
            cross.serial.trace, cross.parallel.trace,
            "trace diverged"
        );
        assert_eq!(cross.serial.observables, cross.parallel.observables);
    }

    /// Cross-driver determinism with the federation enabled: a
    /// handcrafted scenario that links two halls, lets a robot roam
    /// across the federated pair, and partitions/heals the backhaul
    /// must produce byte-identical digests under both drivers with no
    /// oracle violations.
    #[test]
    fn federation_scenario_is_cross_driver_deterministic() {
        let sc = Scenario {
            seed: 77,
            topology: Topology {
                halls: 2,
                loss_per_mille: 0,
                robots: 2,
                catalogs: vec![
                    vec![CatalogEntry {
                        kind: ExtKind::Monitoring,
                        version: 1,
                    }],
                    vec![CatalogEntry {
                        kind: ExtKind::Geofence,
                        version: 1,
                    }],
                ],
                lease_ms: 2_000,
                link_neighbors: false,
            },
            steps: vec![
                Step {
                    at_ms: 500,
                    op: Op::LinkBases { a: 0, b: 1 },
                },
                Step {
                    at_ms: 4_000,
                    op: Op::MoveToHall { node: 0, hall: 1 },
                },
                Step {
                    at_ms: 6_000,
                    op: Op::PartitionBases { a: 0, b: 1 },
                },
                Step {
                    at_ms: 7_500,
                    op: Op::HealBases { a: 0, b: 1 },
                },
            ],
            settle_ms: 8_000,
        };
        let cross = run_cross(&sc);
        assert!(
            cross.violations.is_empty(),
            "federated scenario must be clean: {:?}",
            cross.violations
        );
        assert_eq!(cross.serial.trace, cross.parallel.trace);
        assert_eq!(cross.serial.journal, cross.parallel.journal);
        assert_eq!(cross.serial.observables, cross.parallel.observables);
    }

    /// The `stream-resync` oracle under the full failure vocabulary:
    /// subscribers on all three namespaces attached before traffic, a
    /// late one attached *after* a checkpoint (the compacted WAL forces
    /// the snapshot bootstrap path), a crash → restart in the middle
    /// (forced resync), and a drop at the end — all clean, under both
    /// drivers, byte for byte.
    #[test]
    fn stream_subscribers_survive_crash_restart_and_checkpoint() {
        let step = |at_ms, op| Step { at_ms, op };
        let sc = Scenario {
            seed: 91,
            topology: Topology {
                halls: 2,
                loss_per_mille: 0,
                robots: 1,
                catalogs: vec![
                    vec![CatalogEntry {
                        kind: ExtKind::Monitoring,
                        version: 1,
                    }],
                    vec![CatalogEntry {
                        kind: ExtKind::Geofence,
                        version: 1,
                    }],
                ],
                lease_ms: 2_000,
                link_neighbors: false,
            },
            steps: vec![
                step(300, Op::Subscribe { base: 0, ns: 0 }),
                step(320, Op::Subscribe { base: 0, ns: 1 }),
                step(340, Op::Subscribe { base: 0, ns: 2 }),
                step(
                    2_000,
                    Op::Rpc {
                        base: 0,
                        node: 0,
                        x: 12,
                        y: 8,
                    },
                ),
                step(
                    2_600,
                    Op::Publish {
                        base: 0,
                        kind: ExtKind::Geofence,
                        version: 1,
                    },
                ),
                step(3_000, Op::CheckpointBase { base: 0 }),
                step(3_500, Op::Subscribe { base: 0, ns: 1 }),
                step(4_000, Op::CrashBase { base: 0 }),
                step(5_000, Op::RestartBase { base: 0 }),
                step(
                    6_000,
                    Op::Rpc {
                        base: 0,
                        node: 0,
                        x: 20,
                        y: 4,
                    },
                ),
                step(6_500, Op::DropSubscriber { sub: 0 }),
            ],
            settle_ms: 6_000,
        };
        let cross = run_cross(&sc);
        assert!(
            cross.violations.is_empty(),
            "stream chaos scenario must be clean: {:?}",
            cross.violations
        );
        assert_eq!(cross.serial.trace, cross.parallel.trace);
        assert_eq!(cross.serial.observables, cross.parallel.observables);
    }

    /// Generated scenarios now carry Subscribe/DropSubscriber ops; a
    /// seed sweep must never trip the `stream-resync` oracle, whatever
    /// combination of loss, partitions, crashes, and disk faults the
    /// generator emits around them.
    #[test]
    fn stream_resync_oracle_holds_over_a_seed_sweep() {
        let cfg = GenConfig::default();
        for seed in 0..12 {
            let sc = generate(seed, &cfg);
            let report = run(&sc, DriverKind::Serial);
            let stream: Vec<_> = report
                .violations
                .iter()
                .filter(|v| v.invariant == "stream-resync")
                .collect();
            assert!(stream.is_empty(), "seed {seed}: {stream:?}\n{}", sc.render());
        }
    }
}
