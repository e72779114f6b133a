//! The deterministic result cache: a fixed-capacity LRU over rendered
//! response bodies.
//!
//! Caching whole responses is sound here because simulation runs are
//! bit-deterministic and the response renderer is a pure function of the
//! run result: serving a cached body is byte-identical to re-running the
//! simulation (the end-to-end tests assert exactly this). Entries are
//! `Arc<String>` so a hit hands out a reference without copying the body
//! under the lock.
//!
//! The implementation is a classic slab + intrusive doubly-linked list:
//! `get` promotes to most-recently-used in O(1), `insert` evicts the
//! list tail when full. Keys are the canonical-request hashes from
//! [`crate::request`], so the map uses the workspace's deterministic
//! [`FxHashMap`].

use hmm_sim_base::FxHashMap;
use std::sync::Arc;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    key: u64,
    body: Arc<String>,
    prev: usize,
    next: usize,
}

/// Fixed-capacity least-recently-used cache from canonical-request key to
/// rendered response body.
#[derive(Debug)]
pub struct LruCache {
    cap: usize,
    map: FxHashMap<u64, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    evictions: u64,
}

impl LruCache {
    /// A cache holding up to `cap` entries; `cap == 0` disables caching
    /// (every lookup misses, every insert is dropped).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap,
            map: FxHashMap::default(),
            slots: Vec::with_capacity(cap.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted to make room since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<String>> {
        let &idx = self.map.get(&key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(Arc::clone(&self.slots[idx].body))
    }

    /// Insert (or refresh) `key`; evicts the least-recently-used entry
    /// when the cache is full.
    pub fn insert(&mut self, key: u64, body: Arc<String>) {
        if self.cap == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            // Same key: the same configuration's body, or a colliding
            // configuration's, which displaces it. Refresh recency.
            self.slots[idx].body = body;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() == self.cap {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
            self.evictions += 1;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Slot { key, body, prev: NIL, next: NIL };
                idx
            }
            None => {
                self.slots.push(Slot { key, body, prev: NIL, next: NIL });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].prev = idx,
        }
        self.head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(4);
        assert!(c.get(1).is_none());
        c.insert(1, body("a"));
        assert_eq!(c.get(1).as_deref().map(String::as_str), Some("a"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(1, body("a"));
        c.insert(2, body("b"));
        c.insert(3, body("c"));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(c.get(1).is_some());
        c.insert(4, body("d"));
        assert_eq!(c.len(), 3);
        assert!(c.get(2).is_none(), "2 was least recently used");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert!(c.get(4).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_refreshes_recency_without_growth() {
        let mut c = LruCache::new(2);
        c.insert(1, body("a"));
        c.insert(2, body("b"));
        c.insert(1, body("a"));
        c.insert(3, body("c"));
        assert!(c.get(2).is_none(), "2 was the LRU entry after 1's refresh");
        assert!(c.get(1).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert(1, body("a"));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn churn_preserves_capacity_and_order() {
        let mut c = LruCache::new(8);
        for k in 0..1000u64 {
            c.insert(k, body(&k.to_string()));
            assert!(c.len() <= 8);
        }
        // The last 8 inserts survive, in order.
        for k in 992..1000 {
            assert_eq!(c.get(k).as_deref().map(String::as_str), Some(k.to_string().as_str()));
        }
        assert_eq!(c.evictions(), 992);
    }
}
