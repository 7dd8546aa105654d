//! Chained hash table keyed by raw bytes — the server's item index.
//!
//! Mirrors memcached's primary hash table: power-of-two bucket array,
//! separate chaining, doubling growth. Entries live in a slab `Vec` with a
//! free list so chain links are indices, not pointers.
//!
//! The table owns its keys: a new entry stores a copy of the caller's key,
//! so a key that is a zero-copy slice of a received frame never pins that
//! frame for the life of the entry.

use bytes::Bytes;

use crate::util::fnv1a;

const INITIAL_BUCKETS: usize = 16;
/// Grow when `len > buckets * LOAD_NUM / LOAD_DEN` (load factor 1.5).
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 2;

struct Entry<V> {
    hash: u64,
    key: Bytes,
    value: V,
    next: Option<usize>,
}

/// A chained hash table from byte keys to `V`.
pub struct HashTable<V> {
    buckets: Vec<Option<usize>>,
    entries: Vec<Option<Entry<V>>>,
    free: Vec<usize>,
    len: usize,
}

impl<V> Default for HashTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> HashTable<V> {
    /// Create an empty table.
    pub fn new() -> Self {
        HashTable {
            buckets: vec![None; INITIAL_BUCKETS],
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, hash: u64) -> usize {
        (hash as usize) & (self.buckets.len() - 1)
    }

    /// Insert or replace; returns the previous value for the key. A new
    /// entry stores its own copy of `key`; an overwrite keeps the stored
    /// key and drops the caller's.
    pub fn insert(&mut self, key: Bytes, value: V) -> Option<V> {
        let hash = fnv1a(&key);
        let b = self.bucket_of(hash);
        // Replace in place if present.
        let mut cur = self.buckets[b];
        while let Some(idx) = cur {
            let e = self.entries[idx].as_mut().expect("live chain entry");
            if e.hash == hash && e.key == key {
                return Some(std::mem::replace(&mut e.value, value));
            }
            cur = e.next;
        }
        // New entry at chain head.
        let entry = Entry {
            hash,
            key: Bytes::copy_from_slice(&key),
            value,
            next: self.buckets[b],
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.entries[i] = Some(entry);
                i
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        };
        self.buckets[b] = Some(idx);
        self.len += 1;
        if self.len * LOAD_DEN > self.buckets.len() * LOAD_NUM {
            self.grow();
        }
        None
    }

    /// Shared lookup.
    pub fn get(&self, key: &[u8]) -> Option<&V> {
        let hash = fnv1a(key);
        let mut cur = self.buckets[self.bucket_of(hash)];
        while let Some(idx) = cur {
            let e = self.entries[idx].as_ref().expect("live chain entry");
            if e.hash == hash && e.key == key {
                return Some(&e.value);
            }
            cur = e.next;
        }
        None
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut V> {
        let hash = fnv1a(key);
        let b = self.bucket_of(hash);
        let mut cur = self.buckets[b];
        while let Some(idx) = cur {
            // Split borrow: read link first.
            let (h, k_eq, next) = {
                let e = self.entries[idx].as_ref().expect("live chain entry");
                (e.hash, e.key == key, e.next)
            };
            if h == hash && k_eq {
                return self.entries[idx].as_mut().map(|e| &mut e.value);
            }
            cur = next;
        }
        None
    }

    /// Remove an entry, returning its value.
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        let hash = fnv1a(key);
        let b = self.bucket_of(hash);
        let mut prev: Option<usize> = None;
        let mut cur = self.buckets[b];
        while let Some(idx) = cur {
            let (matches, next) = {
                let e = self.entries[idx].as_ref().expect("live chain entry");
                (e.hash == hash && e.key == key, e.next)
            };
            if matches {
                match prev {
                    Some(p) => self.entries[p].as_mut().expect("live chain entry").next = next,
                    None => self.buckets[b] = next,
                }
                let e = self.entries[idx].take().expect("live chain entry");
                self.free.push(idx);
                self.len -= 1;
                return Some(e.value);
            }
            prev = cur;
            cur = next;
        }
        None
    }

    /// Iterate `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Bytes, &V)> {
        self.entries
            .iter()
            .filter_map(|e| e.as_ref().map(|e| (&e.key, &e.value)))
    }

    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        let mut new_buckets: Vec<Option<usize>> = vec![None; new_len];
        for idx in 0..self.entries.len() {
            if self.entries[idx].is_some() {
                let hash = self.entries[idx].as_ref().expect("checked").hash;
                let b = (hash as usize) & (new_len - 1);
                let head = new_buckets[b];
                self.entries[idx].as_mut().expect("checked").next = head;
                new_buckets[b] = Some(idx);
            }
        }
        self.buckets = new_buckets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Bytes {
        Bytes::from(format!("key-{i:08}"))
    }

    #[test]
    fn insert_get_remove() {
        let mut t = HashTable::new();
        assert!(t.insert(key(1), 10).is_none());
        assert_eq!(t.get(&key(1)), Some(&10));
        assert_eq!(t.remove(&key(1)), Some(10));
        assert_eq!(t.get(&key(1)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut t = HashTable::new();
        t.insert(key(5), "a");
        assert_eq!(t.insert(key(5), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&key(5)), Some(&"b"));
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t = HashTable::new();
        t.insert(key(1), 1);
        *t.get_mut(&key(1)).unwrap() += 41;
        assert_eq!(t.get(&key(1)), Some(&42));
        assert!(t.get_mut(b"absent").is_none());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = HashTable::new();
        for i in 0..10_000u32 {
            t.insert(key(i), i);
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(t.get(&key(i)), Some(&i), "key {i}");
        }
    }

    #[test]
    fn removal_keeps_chains_intact() {
        let mut t = HashTable::new();
        for i in 0..1000u32 {
            t.insert(key(i), i);
        }
        for i in (0..1000).step_by(3) {
            assert_eq!(t.remove(&key(i)), Some(i));
        }
        for i in 0..1000u32 {
            let expect = (i % 3 != 0).then_some(i);
            assert_eq!(t.get(&key(i)).copied(), expect, "key {i}");
        }
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut t = HashTable::new();
        for i in 0..100u32 {
            t.insert(key(i), i);
        }
        for i in 0..100u32 {
            t.remove(&key(i));
        }
        let slots_before = t.entries.len();
        for i in 100..200u32 {
            t.insert(key(i), i);
        }
        assert_eq!(t.entries.len(), slots_before, "free list should recycle");
    }

    #[test]
    fn iter_sees_all_live_entries() {
        let mut t = HashTable::new();
        for i in 0..50u32 {
            t.insert(key(i), i);
        }
        t.remove(&key(7));
        let mut seen: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..50).filter(|&i| i != 7).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn new_entries_own_their_keys() {
        let frame = Bytes::from(b"hdr:key-a|hdr:key-a|".to_vec());
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        let stored_key = |t: &HashTable<u32>| t.iter().next().expect("one entry").0.as_ptr();
        let mut t = HashTable::new();
        t.insert(frame.slice(4..9), 1);
        let first = stored_key(&t);
        assert!(
            !frame_range.contains(&(first as usize)),
            "a new entry must copy its key out of the frame"
        );
        // An overwrite through a second slice keeps the first stored copy.
        assert_eq!(t.insert(frame.slice(14..19), 2), Some(1));
        assert_eq!(stored_key(&t), first);
        assert_eq!(t.get(b"key-a"), Some(&2));
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        let mut t = HashTable::new();
        t.insert(Bytes::new(), 1);
        assert_eq!(t.get(b""), Some(&1));
        assert_eq!(t.remove(b""), Some(1));
    }
}
