//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! Every WAL frame and snapshot file carries a CRC over its length
//! prefix *and* body, so any single corrupted byte — including one in
//! the length itself — is detectable before the wire decoder runs.
//!
//! [`Crc32::update`] uses slicing-by-8: eight 256-entry tables, built at
//! compile time, fold eight input bytes per step instead of one.
//! `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
//! of byte `i` followed by `k` zero bytes. No external crate needed.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// An incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The final checksum.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop the slicing path replaced: the reference every
    /// fast-path result is checked against.
    fn reference(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        crc
    }

    /// Deterministic pseudo-random bytes (splitmix64).
    fn noise(n: usize, mut seed: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_matches_the_bytewise_reference_at_every_length_and_alignment() {
        let data = noise(1024 + 8, 1);
        for start in 0..8 {
            for len in 0..=1024 {
                let bytes = &data[start..start + len];
                let mut h = Crc32::new();
                h.update(bytes);
                assert_eq!(
                    h.finish(),
                    !reference(!0, bytes),
                    "start {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn slicing_matches_the_reference_across_incremental_splits() {
        let data = noise(777, 2);
        let whole = !reference(!0, &data);
        let cuts = noise(64, 3);
        for round in 0..32 {
            let mut h = Crc32::new();
            let mut at = 0;
            let mut i = round;
            while at < data.len() {
                // Pieces of 0..=19 bytes, so every remainder length and
                // empty updates both occur.
                let step = usize::from(cuts[i % cuts.len()] % 20).min(data.len() - at);
                h.update(&data[at..at + step]);
                at += step;
                i += 1;
            }
            assert_eq!(h.finish(), whole, "split pattern {round}");
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Crc32::new();
        h.update(b"123");
        h.update(b"456789");
        assert_eq!(h.finish(), crc32(b"123456789"));
    }

    #[test]
    fn any_single_byte_flip_changes_the_checksum() {
        let data = b"the extension catalog of hall-a";
        let base = crc32(data);
        for i in 0..data.len() {
            let mut copy = data.to_vec();
            copy[i] ^= 0x40;
            assert_ne!(crc32(&copy), base, "flip at byte {i} went undetected");
        }
    }
}
