//! A small order-tracking LRU map (used by the page cache and mmap
//! residency tracking).
//!
//! Implemented as a `HashMap` plus an intrusive doubly-linked list over
//! map keys; all operations are O(1) expected.

use std::collections::HashMap;
use std::hash::Hash;

struct Node<K, V> {
    value: V,
    prev: Option<K>,
    next: Option<K>,
}

/// An LRU-ordered map: `touch`/`insert` move entries to the front;
/// `pop_lru` removes from the back.
pub struct LruMap<K: Eq + Hash + Copy, V> {
    map: HashMap<K, Node<K, V>>,
    head: Option<K>,
    tail: Option<K>,
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
            head: None,
            tail: None,
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
        let old = self.remove(&key);
        self.map.insert(
            key,
            Node {
                value,
                prev: None,
                next: self.head,
            },
        );
        if let Some(h) = self.head {
            if let Some(n) = self.map.get_mut(&h) {
                n.prev = Some(key);
            }
        }
        self.head = Some(key);
        if self.tail.is_none() {
            self.tail = Some(key);
        }
        old
    }

    /// Read without affecting recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|n| &n.value)
    }

    /// Mutable read without affecting recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key).map(|n| &mut n.value)
    }

    /// Read and mark most-recently-used.
    pub fn touch(&mut self, key: &K) -> Option<&V> {
        if !self.map.contains_key(key) {
            return None;
        }
        self.unlink(key);
        self.link_front(*key);
        self.map.get(key).map(|n| &n.value)
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.map.contains_key(key) {
            return None;
        }
        self.unlink(key);
        self.map.remove(key).map(|n| n.value)
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let key = self.tail?;
        let value = self.remove(&key)?;
        Some((key, value))
    }

    /// The least-recently-used key, if any (does not affect recency).
    pub fn lru_key(&self) -> Option<K> {
        self.tail
    }

    /// Iterate over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, n)| (k, &n.value))
    }

    fn unlink(&mut self, key: &K) {
        let (prev, next) = match self.map.get(key) {
            Some(n) => (n.prev, n.next),
            None => return,
        };
        match prev {
            Some(p) => {
                if let Some(n) = self.map.get_mut(&p) {
                    n.next = next;
                }
            }
            None => self.head = next,
        }
        match next {
            Some(nx) => {
                if let Some(n) = self.map.get_mut(&nx) {
                    n.prev = prev;
                }
            }
            None => self.tail = prev,
        }
        if let Some(n) = self.map.get_mut(key) {
            n.prev = None;
            n.next = None;
        }
    }

    fn link_front(&mut self, key: K) {
        if let Some(h) = self.head {
            if let Some(n) = self.map.get_mut(&h) {
                n.prev = Some(key);
            }
        }
        if let Some(n) = self.map.get_mut(&key) {
            n.prev = None;
            n.next = self.head;
        }
        self.head = Some(key);
        if self.tail.is_none() {
            self.tail = Some(key);
        }
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
