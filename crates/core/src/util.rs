//! Small shared utilities.

/// FNV-1a 64-bit hash — the classic memcached-adjacent byte hash. The
/// client's server-selection ring hashes keys with it, then mixes the
/// result with `nbkv_simrt::mix64`: FNV-1a alone clusters for
/// near-identical strings, which skews consistent-hash arcs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Pack a (slab page, chunk) pair into one id.
pub fn pack_item_id(page: u32, chunk: u32) -> u64 {
    ((page as u64) << 32) | chunk as u64
}

/// Inverse of [`pack_item_id`].
pub fn unpack_item_id(id: u64) -> (u32, u32) {
    ((id >> 32) as u32, id as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Reference values for FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_distinguishes_keys() {
        assert_ne!(fnv1a(b"key-1"), fnv1a(b"key-2"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn item_id_round_trips() {
        for (p, c) in [(0, 0), (1, 2), (u32::MAX, u32::MAX), (7, 0)] {
            assert_eq!(unpack_item_id(pack_item_id(p, c)), (p, c));
        }
    }
}
