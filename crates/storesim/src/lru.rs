//! A small order-tracking LRU map (used by the page cache's residency and
//! the server's item and page LRUs).
//!
//! Implemented as a `HashMap` from key to node index plus a doubly-linked
//! list over a `Vec` of nodes, linked by `u32` index, so every operation
//! does at most one map lookup and is O(1) expected. Removed nodes go on a
//! free list and are reused by later inserts.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// The null link (no previous / next node).
const NIL: u32 = u32::MAX;

struct Node<K, V> {
    key: K,
    /// `None` only while the node sits on the free list.
    value: Option<V>,
    prev: u32,
    next: u32,
}

/// An LRU-ordered map: `touch`/`insert` move entries to the front;
/// `pop_lru` removes from the back.
pub struct LruMap<K: Eq + Hash + Copy, V> {
    map: HashMap<K, u32>,
    nodes: Vec<Node<K, V>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl<K: Eq + Hash + Copy, V> Default for LruMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Copy, V> LruMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        LruMap {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if `key` is present (does not affect recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert or replace; the entry becomes most-recently-used. Returns the
    /// previous value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = match self.map.entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get();
                self.unlink(i);
                self.link_front(i);
                return self.nodes[i as usize].value.replace(value);
            }
            Entry::Vacant(e) => {
                let node = Node {
                    key,
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.nodes[i as usize] = node;
                        i
                    }
                    None => {
                        let i = u32::try_from(self.nodes.len())
                            .ok()
                            .filter(|&i| i != NIL)
                            .expect("LruMap holds fewer than u32::MAX entries");
                        self.nodes.push(node);
                        i
                    }
                };
                *e.insert(i)
            }
        };
        self.link_front(i);
        None
    }

    /// Read without affecting recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        self.nodes[i as usize].value.as_ref()
    }

    /// Mutable read without affecting recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let &i = self.map.get(key)?;
        self.nodes[i as usize].value.as_mut()
    }

    /// Read and mark most-recently-used.
    pub fn touch(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.link_front(i);
        self.nodes[i as usize].value.as_ref()
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.map.remove(key)?;
        Some(self.release(i))
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let key = self.lru_key()?;
        self.map.remove(&key);
        Some((key, self.release(self.tail)))
    }

    /// The least-recently-used key, if any (does not affect recency).
    pub fn lru_key(&self) -> Option<K> {
        (self.tail != NIL).then(|| self.nodes[self.tail as usize].key)
    }

    /// Iterate over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.nodes
            .iter()
            .filter_map(|n| n.value.as_ref().map(|v| (&n.key, v)))
    }

    /// Unlink node `i` (already gone from the map) and put it on the free
    /// list, returning its value.
    fn release(&mut self, i: u32) -> V {
        self.unlink(i);
        self.free.push(i);
        self.nodes[i as usize]
            .value
            .take()
            .expect("linked node holds a value")
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_front(&mut self, i: u32) {
        let node = &mut self.nodes[i as usize];
        node.prev = NIL;
        node.next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h as usize].prev = i,
        }
        self.head = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_pop_lru_order() {
        let mut m = LruMap::new();
        for i in 0..4u32 {
            m.insert(i, i * 10);
        }
        assert_eq!(m.pop_lru(), Some((0, 0)));
        assert_eq!(m.pop_lru(), Some((1, 10)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn touch_promotes_entry() {
        let mut m = LruMap::new();
        for i in 0..3u32 {
            m.insert(i, ());
        }
        assert!(m.touch(&0).is_some());
        assert_eq!(m.pop_lru().unwrap().0, 1);
        assert_eq!(m.pop_lru().unwrap().0, 2);
        assert_eq!(m.pop_lru().unwrap().0, 0);
        assert!(m.pop_lru().is_none());
    }

    #[test]
    fn reinsert_promotes_and_replaces() {
        let mut m = LruMap::new();
        m.insert(1u32, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(1, "a2"), Some("a"));
        assert_eq!(m.pop_lru(), Some((2, "b")));
        assert_eq!(m.pop_lru(), Some((1, "a2")));
    }

    /// Pop every key, least-recently-used first.
    fn drain_lru_first(m: &mut LruMap<u32, ()>) -> Vec<u32> {
        std::iter::from_fn(|| m.pop_lru().map(|(k, ())| k)).collect()
    }

    #[test]
    fn remove_middle_keeps_links_consistent() {
        let mut m = LruMap::new();
        for i in 0..5u32 {
            m.insert(i, ());
        }
        assert!(m.remove(&2).is_some());
        assert!(m.remove(&2).is_none());
        assert_eq!(drain_lru_first(&mut m), vec![0, 1, 3, 4]);
    }

    #[test]
    fn remove_head_and_tail() {
        let mut m = LruMap::new();
        for i in 0..3u32 {
            m.insert(i, ());
        }
        m.remove(&2); // head (most recent)
        m.remove(&0); // tail (least recent)
        assert_eq!(m.lru_key(), Some(1));
        assert_eq!(drain_lru_first(&mut m), vec![1]);
    }

    #[test]
    fn peek_does_not_promote() {
        let mut m = LruMap::new();
        m.insert(1u32, ());
        m.insert(2, ());
        assert!(m.peek(&1).is_some());
        assert_eq!(m.pop_lru().unwrap().0, 1);
    }

    #[test]
    fn single_entry_edge_cases() {
        let mut m: LruMap<u32, ()> = LruMap::new();
        assert!(m.pop_lru().is_none());
        m.insert(7, ());
        assert_eq!(m.lru_key(), Some(7));
        assert_eq!(m.pop_lru(), Some((7, ())));
        assert!(m.is_empty());
        assert_eq!(m.lru_key(), None);
    }

    #[test]
    fn stress_against_reference_model() {
        // Compare against a naive Vec-based LRU model.
        let mut m = LruMap::new();
        let mut model: Vec<u32> = Vec::new(); // front = MRU
        let mut x: u64 = 12345;
        for step in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as u32 % 50;
            match step % 4 {
                0 | 1 => {
                    m.insert(key, step);
                    model.retain(|&k| k != key);
                    model.insert(0, key);
                }
                2 => {
                    let got = m.touch(&key).is_some();
                    let expect = model.contains(&key);
                    assert_eq!(got, expect);
                    if expect {
                        model.retain(|&k| k != key);
                        model.insert(0, key);
                    }
                }
                _ => {
                    let got = m.remove(&key).is_some();
                    let expect = model.contains(&key);
                    assert_eq!(got, expect);
                    model.retain(|&k| k != key);
                }
            }
            assert_eq!(m.len(), model.len());
        }
        // Final drain order must match the model exactly.
        let mut drained = Vec::new();
        while let Some((k, _)) = m.pop_lru() {
            drained.push(k);
        }
        model.reverse(); // model front = MRU, drain order = LRU first
        assert_eq!(drained, model);
    }
}
