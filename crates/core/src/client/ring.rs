//! Key-to-server selection: a ketama-style consistent-hash ring.

use nbkv_simrt::mix64;

use crate::util::fnv1a;

const VNODES_PER_SERVER: u32 = 64;

/// Placement point for vnode `v` of server `s`: one `mix64` over the
/// packed pair. Hashing the integers directly (instead of formatting a
/// `server-{s}:vnode-{v}` label and hashing the string) keeps ring
/// construction allocation-free. The `+ 1` keeps the input nonzero so
/// (0, 0) does not sit at `mix64(0) = 0`, the wrap-around point.
fn point(s: usize, v: u32) -> u64 {
    mix64(((s as u64) << 32) | (v as u64 + 1))
}

/// A consistent-hash ring over `n` servers.
///
/// Both the client library and test harnesses use this, so a key always
/// lands on the same server regardless of who computes the mapping.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted (point, server) pairs.
    points: Vec<(u64, u16)>,
    servers: usize,
}

impl Ring {
    /// Build a ring over `servers` servers (must be nonzero).
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "ring needs at least one server");
        assert!(servers <= u16::MAX as usize);
        let mut points = Vec::with_capacity(servers * VNODES_PER_SERVER as usize);
        for s in 0..servers {
            for v in 0..VNODES_PER_SERVER {
                points.push((point(s, v), s as u16));
            }
        }
        points.sort_unstable();
        debug_assert!(!points.is_empty(), "ring must carry placement points");
        Ring { points, servers }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The server responsible for `key`.
    pub fn select(&self, key: &[u8]) -> usize {
        debug_assert!(!self.points.is_empty(), "select on an empty ring");
        if self.servers == 1 {
            return 0; // every point is server 0's; skip the hash
        }
        let h = mix64(fnv1a(key));
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, server) = self.points[idx % self.points.len()];
        server as usize
    }

    /// Appends the ordered replica set for `key` at replication factor
    /// `rf` to `out`: walk the ring clockwise from the key's point and
    /// collect the first `rf` *distinct* servers. The first one appended is
    /// always [`select`](Self::select)'s primary; `rf` is clamped to the
    /// server count, so at least one server is appended and none twice.
    /// Appending lets a caller route into a buffer it sized once.
    pub fn select_replicas(&self, key: &[u8], rf: usize, out: &mut Vec<usize>) {
        debug_assert!(!self.points.is_empty(), "select on an empty ring");
        let want = rf.clamp(1, self.servers);
        if self.servers == 1 {
            out.push(0);
            return;
        }
        let h = mix64(fnv1a(key));
        let start = self.points.partition_point(|&(p, _)| p < h);
        let base = out.len();
        for step in 0..self.points.len() {
            let (_, server) = self.points[(start + step) % self.points.len()];
            let server = server as usize;
            if !out[base..].contains(&server) {
                out.push(server);
                if out.len() - base == want {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replicas(ring: &Ring, key: &[u8], rf: usize) -> Vec<usize> {
        let mut out = Vec::new();
        ring.select_replicas(key, rf, &mut out);
        out
    }

    #[test]
    fn single_server_gets_everything() {
        let ring = Ring::new(1);
        for i in 0..100 {
            assert_eq!(ring.select(format!("k{i}").as_bytes()), 0);
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let a = Ring::new(4);
        let b = Ring::new(4);
        for i in 0..1000 {
            let k = format!("key-{i}");
            assert_eq!(a.select(k.as_bytes()), b.select(k.as_bytes()));
        }
    }

    #[test]
    fn distribution_is_roughly_even() {
        let ring = Ring::new(4);
        let mut counts = [0usize; 4];
        for i in 0..40_000 {
            counts[ring.select(format!("key-{i:06}").as_bytes())] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (4_000..=20_000).contains(&c),
                "server {s} got {c}/40000 keys"
            );
        }
    }

    #[test]
    fn skew_is_bounded_for_every_cluster_size() {
        // Across every cluster size we actually run, no server's share
        // may stray more than 2.5x from the fair share in either
        // direction (ketama with 64 vnodes keeps skew well inside that).
        const KEYS: usize = 20_000;
        for servers in 1..=16 {
            let ring = Ring::new(servers);
            let mut counts = vec![0usize; servers];
            for i in 0..KEYS {
                counts[ring.select(format!("key-{i:06}").as_bytes())] += 1;
            }
            let fair = KEYS / servers;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    c * 5 >= fair * 2 && c * 2 <= fair * 5,
                    "{servers}-server ring: server {s} got {c} keys (fair {fair})"
                );
            }
        }
    }

    #[test]
    fn adding_a_server_remaps_only_a_fraction() {
        let before = Ring::new(4);
        let after = Ring::new(5);
        let moved = (0..10_000)
            .filter(|i| {
                let k = format!("key-{i}");
                before.select(k.as_bytes()) != after.select(k.as_bytes())
            })
            .count();
        // Consistent hashing: ~1/5 of keys move, far from all of them.
        assert!(moved < 5_000, "{moved}/10000 keys moved");
        assert!(moved > 500, "{moved}/10000 keys moved (suspiciously few)");
    }

    #[test]
    fn replica_sets_start_at_the_primary_and_clamp_to_server_count() {
        let ring = Ring::new(3);
        for i in 0..500 {
            let k = format!("key-{i:06}");
            let k = k.as_bytes();
            assert_eq!(replicas(&ring, k, 1), vec![ring.select(k)]);
            let two = replicas(&ring, k, 2);
            assert_eq!(two.len(), 2);
            assert_eq!(two[0], ring.select(k));
            // rf beyond the cluster clamps: every server, each exactly once.
            let all = replicas(&ring, k, 8);
            let mut sorted = all.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            assert_eq!(all[..2], two[..]);
            // Appending ignores what the buffer already holds.
            let mut out = vec![2, 1, 0];
            ring.select_replicas(k, 2, &mut out);
            assert_eq!(out[3..], two[..]);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// For random key sets and RF in {1,2,3}: replica sets contain
        /// `rf` *distinct* servers led by the primary, growing the
        /// cluster only remaps the keys whose vnode arcs moved, and
        /// per-replica-slot skew stays within the same 2.5x-of-fair bound
        /// the mix64 skew test pins for primaries.
        #[test]
        fn replica_sets_are_disjoint_stable_and_balanced(
            seed in any::<u32>(),
            servers in 4usize..=9,
            rf in 1usize..=3,
        ) {
            const KEYS: usize = 4_000;
            let ring = Ring::new(servers);
            let grown = Ring::new(servers + 1);
            let keys: Vec<String> =
                (0..KEYS).map(|i| format!("key-{seed:08x}-{i:06}")).collect();

            let mut counts = vec![0usize; servers];
            let mut moved = 0usize;
            for k in &keys {
                let k = k.as_bytes();
                let set = replicas(&ring, k, rf);
                // Distinct servers, primary first.
                prop_assert_eq!(set.len(), rf);
                prop_assert_eq!(set[0], ring.select(k));
                let mut dedup = set.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), rf, "replica set repeats a server");
                for &s in &set {
                    counts[s] += 1;
                }
                // Stability under growth: a key's set only changes if one
                // of its ring-walk arcs was taken over by the new server —
                // i.e. the grown set is the old set with (at most) new
                // members spliced in; surviving members keep their order.
                let grown_set = replicas(&grown, k, rf);
                if grown_set != set {
                    moved += 1;
                    let survivors: Vec<usize> = grown_set
                        .iter()
                        .copied()
                        .filter(|&s| s != servers)
                        .collect();
                    let mut it = set.iter();
                    prop_assert!(
                        survivors.iter().all(|s| it.any(|o| o == s)),
                        "grown set {grown_set:?} reordered survivors of {set:?}"
                    );
                }
            }
            // Only a bounded fraction of keys may change placement: the
            // new server owns ~1/(n+1) of each of the rf walk positions.
            let expect = KEYS * rf / (servers + 1);
            prop_assert!(
                moved <= expect * 3 + KEYS / 10,
                "{moved}/{KEYS} keys remapped at rf={rf} (expected ~{expect})"
            );
            // Skew: each key counts once per replica slot, so the fair
            // share is rf*KEYS/servers; hold every server to the primary
            // test's 2.5x band around it.
            let fair = KEYS * rf / servers;
            for (s, &c) in counts.iter().enumerate() {
                prop_assert!(
                    c * 5 >= fair * 2 && c * 2 <= fair * 5,
                    "server {s} holds {c} of {KEYS} keys at rf={rf} (fair {fair})"
                );
            }
        }
    }
}
