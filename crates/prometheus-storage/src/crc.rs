//! CRC-32 (IEEE 802.3 polynomial) used to detect torn or corrupted log
//! frames during recovery.
//!
//! Implemented locally because the storage layer depends only on the
//! sanctioned crate set. Table-driven, eight bytes per step ("slicing by
//! 8"): recovery checksums every frame of the log, so replay time follows
//! this loop.

/// `TABLES[0]` is the CRC-32 table for the reflected polynomial
/// `0xEDB88320`; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets one step fold eight input bytes.
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
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Fold `data` into the running (pre-inverted) state `crc`.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Compute the CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !update(0xFFFF_FFFF, data)
}

/// Incremental CRC-32 hasher, for framing code that checksums header and
/// payload separately.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a new checksum computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish and return the checksum.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"prometheus taxonomic database";
        let mut h = Crc32::new();
        h.update(&data[..7]);
        h.update(&data[7..]);
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn eight_bytes_per_step_match_one_byte_per_step() {
        let bytewise = |data: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &byte in data {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
            }
            !crc
        };
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"classification".to_vec();
        let before = crc32(&data);
        data[3] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }
}
