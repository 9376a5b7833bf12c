//! Cheap, stable fingerprints: the one FNV-1a 64-bit function behind
//! region fingerprints, checkpoint shard sums, transfer frame checksums
//! and key bucketing.
//!
//! The runtime's location cache (`allscale-core`) keys cached region
//! resolutions by a 64-bit fingerprint of the queried region. The hash has
//! to be *stable* (the same region value always fingerprints the same way,
//! across runs and processes — cache keys travel through reports and
//! tests) and *cheap* (it sits on the hot path in front of the index), so
//! we use the classic FNV-1a 64-bit function over the region's canonical
//! byte encoding rather than `std`'s randomly-keyed `SipHash`.
//!
//! Fingerprint equality does NOT imply region equality: callers that need
//! exactness (the location cache does) must confirm candidate hits with a
//! real equality check. Collisions therefore cost a cache miss, never a
//! wrong answer.

/// The FNV-1a 64-bit offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash a byte slice with FNV-1a 64-bit.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values of the canonical FNV-1a 64-bit function.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        assert_ne!(fnv1a_64(b"0 10"), fnv1a_64(b"0 11"));
        assert_ne!(fnv1a_64(&[0, 1]), fnv1a_64(&[1, 0]));
    }
}
