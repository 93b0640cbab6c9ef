//! The workspace's hashes: FNV-1a, the splitmix64 step and CRC-32.
//!
//! All three end up in persisted bytes or in decisions two processes
//! must agree on (shard placement, result fingerprints, the `Rng`
//! stream, frame checksums), so their outputs are frozen.

/// The FNV-1a 64-bit offset basis: the state to start a hash from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a `state`. Start from [`FNV_OFFSET`];
/// feeding a message in pieces equals feeding it whole.
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One splitmix64 step: advances `state` by the golden-ratio increment
/// and returns its avalanche mix. A stream when called repeatedly, a
/// finalizer when called once on a hash.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`)
/// — the zlib/PNG checksum. Feeding a message in pieces equals feeding
/// it whole, so a checksum over `a ‖ b` needs no copy of the two.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    #[inline]
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        const TABLE: [u32; 256] = crc32_table();
        let mut crc = self.0;
        for &b in bytes {
            let idx = ((crc ^ b as u32) & 0xFF) as usize;
            crc = (crc >> 8) ^ TABLE[idx];
        }
        self.0 = crc;
    }

    /// The checksum of everything fed.
    #[inline]
    pub fn finish(self) -> u32 {
        !self.0
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crc32(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(bytes);
        c.finish()
    }

    #[test]
    fn crc32_matches_known_vectors_and_feeds_incrementally() {
        // Standard zlib/PNG test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let fox = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc32(fox), 0x414F_A339);
        for split in 0..fox.len() {
            let mut c = Crc32::new();
            c.update(&fox[..split]);
            c.update(&fox[split..]);
            assert_eq!(c.finish(), 0x414F_A339, "split at {split}");
        }
    }

    #[test]
    fn fnv1a_matches_known_vectors_and_feeds_incrementally() {
        // Reference vectors of the FNV-1a 64-bit specification.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the reference implementation seeded with 0
        // (Vigna, splitmix64.c).
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut state), 0x06C4_5D18_8009_454F);
        assert_eq!(state, 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(3));
    }
}
