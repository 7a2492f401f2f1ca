//! CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8.
//!
//! Self-contained so the durability layer stays dependency-free like the
//! rest of the workspace. The checksum guards every WAL record payload
//! and the checkpoint body against torn writes and bit rot.
//!
//! Slicing-by-8 folds eight input bytes per step through eight 256-entry
//! tables (table `k` advances a byte's contribution by `k` further zero
//! bytes), so the loop does eight independent lookups instead of eight
//! dependent ones. The tables are built at compile time; the checksums
//! are the bytewise algorithm's, bit for bit.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is
/// `TABLES[k - 1][b]` pushed through one more zero byte.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// A running CRC-32 over input fed in pieces: `update` each slice in
/// order, then `finish`. Equal to [`crc32`] of the concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(u32::MAX)
    }
}

impl Crc32 {
    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in words.by_ref() {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        self.0 ^ u32::MAX
    }
}

/// CRC-32 of `bytes` (initial value all-ones, final xor all-ones — the
/// standard zlib/`crc32` convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::default();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition slicing-by-8 must reproduce: byte by byte, one
    /// polynomial step per bit, no table.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = u32::MAX;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ u32::MAX
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"hello wal");
        let mut flipped = b"hello wal".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(base, crc32(&flipped));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A random length from 0 to 4 096 at every start offset 0–7, so
        /// each alignment of the eight-byte loop meets each remainder;
        /// also fed in two pieces split at an arbitrary point.
        #[test]
        fn slicing_by_8_equals_the_bytewise_reference(
            len in 0usize..4097,
            bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 4104..4105),
            split in 0usize..4097,
        ) {
            for start in 0..8 {
                let slice = &bytes[start..start + len];
                prop_assert_eq!(crc32(slice), bytewise(slice));
                let (a, b) = slice.split_at(split.min(len));
                let mut c = Crc32::default();
                c.update(a);
                c.update(b);
                prop_assert_eq!(c.finish(), bytewise(slice));
            }
        }
    }
}
