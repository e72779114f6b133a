//! Index-handle slab arena for hot-path object lifetimes.
//!
//! The controller's in-flight migration copy legs used to live in a hash
//! map keyed by id — one hash per insert and one per lookup on the hot
//! path. A [`Slab`] replaces the map with a flat vector and a free list:
//! `insert` returns a dense `u32` handle, `get_mut`/`remove` are direct
//! indexing, and freed slots are recycled in LIFO order so steady-state
//! churn touches the same few cache lines.

/// Sentinel marking the end of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Entry<T> {
    Occupied(T),
    /// Vacant slot; payload is the next free index ([`NIL`] at the end).
    Free(u32),
}

/// A slab arena: a `Vec` of entries plus an intrusive free list.
///
/// Handles are plain `u32` indexes. A removed handle's slot may be reused
/// by a later `insert`; holders must not retain handles across `remove`
/// (the simulator's users are strict insert-once/remove-once, enforced in
/// debug builds by the `Occupied` match).
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab with no backing storage yet.
    pub fn new() -> Self {
        Self { entries: Vec::new(), free_head: NIL, len: 0 }
    }

    /// Store `value`, returning its handle. Reuses the most recently freed
    /// slot when one exists.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.entries[idx as usize];
            let Entry::Free(next) = *slot else {
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next;
            *slot = Entry::Occupied(value);
            idx
        } else {
            let idx = u32::try_from(self.entries.len()).expect("slab capacity exceeds u32");
            self.entries.push(Entry::Occupied(value));
            idx
        }
    }

    /// Mutable access to a live entry; `None` if the handle is stale.
    pub fn get_mut(&mut self, handle: u32) -> Option<&mut T> {
        match self.entries.get_mut(handle as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Remove and return the entry behind `handle`, freeing its slot for
    /// reuse. Panics on a stale or out-of-range handle — double-removal
    /// is a logic error, not a runtime condition.
    pub fn remove(&mut self, handle: u32) -> T {
        let slot = &mut self.entries[handle as usize];
        match std::mem::replace(slot, Entry::Free(self.free_head)) {
            Entry::Occupied(v) => {
                self.free_head = handle;
                self.len -= 1;
                v
            }
            Entry::Free(prev) => {
                *slot = Entry::Free(prev);
                panic!("slab handle {handle} removed twice");
            }
        }
    }

    /// Serialize the slab, preserving the exact slot layout and free list:
    /// handles held elsewhere stay valid across a save/load round trip.
    /// `f` encodes one live entry.
    pub fn save_state(
        &self,
        w: &mut crate::snap::SnapWriter,
        mut f: impl FnMut(&mut crate::snap::SnapWriter, &T),
    ) {
        w.u32(self.free_head);
        w.usize(self.len);
        w.seq(&self.entries, |w, e| match e {
            Entry::Occupied(v) => {
                w.u8(1);
                f(w, v);
            }
            Entry::Free(next) => {
                w.u8(0);
                w.u32(*next);
            }
        });
    }

    /// Restore a slab saved by [`Slab::save_state`]; `f` decodes one live
    /// entry.
    pub fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
        mut f: impl FnMut(&mut crate::snap::SnapReader<'_>) -> crate::snap::SnapResult<T>,
    ) -> crate::snap::SnapResult<()> {
        self.free_head = r.u32()?;
        self.len = r.usize()?;
        let n = r.seq_len(1)?;
        self.entries.clear();
        self.entries.reserve(n);
        for _ in 0..n {
            let e = match r.u8()? {
                1 => Entry::Occupied(f(r)?),
                0 => Entry::Free(r.u32()?),
                t => return Err(format!("invalid slab entry tag {t}")),
            };
            self.entries.push(e);
        }
        let live = self.entries.iter().filter(|e| matches!(e, Entry::Occupied(_))).count();
        if live != self.len {
            return Err(format!("slab len {} disagrees with {live} live entries", self.len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len, 2);
        assert_eq!(s.get_mut(a), Some(&mut "a"));
        assert_eq!(s.get_mut(b), Some(&mut "b"));
        assert_eq!(s.remove(a), "a");
        assert_eq!(s.get_mut(a), None, "removed handle must read as stale");
        assert_eq!(s.len, 1);
        assert_eq!(s.remove(b), "b");
        assert_eq!(s.len, 0);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut s = Slab::new();
        let h: Vec<u32> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(h[1]);
        s.remove(h[3]);
        // LIFO: the most recently freed slot comes back first.
        assert_eq!(s.insert(10), h[3]);
        assert_eq!(s.insert(11), h[1]);
        assert_eq!(s.entries.len(), 4, "churn must not grow the slab");
        assert_eq!(s.insert(12), 4, "full slab grows by appending");
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s = Slab::new();
        let h = s.insert(1u64);
        *s.get_mut(h).unwrap() += 41;
        assert_eq!(s.remove(h), 42);
    }

    #[test]
    #[should_panic(expected = "removed twice")]
    fn double_remove_panics() {
        let mut s = Slab::new();
        let h = s.insert(());
        s.remove(h);
        s.remove(h);
    }

    #[test]
    fn interleaved_churn_stays_consistent() {
        // A schedule shaped like the migration engine's: bursts of inserts
        // drained in arbitrary order, repeated across "epochs".
        let mut s = Slab::new();
        for epoch in 0..10u64 {
            let hs: Vec<u32> = (0..16).map(|i| s.insert(epoch * 100 + i)).collect();
            for (i, h) in hs.iter().enumerate() {
                assert_eq!(s.get_mut(*h), Some(&mut (epoch * 100 + i as u64)));
            }
            // Remove evens, insert replacements, then drain everything.
            for h in hs.iter().step_by(2) {
                s.remove(*h);
            }
            let more: Vec<u32> = (0..8).map(|i| s.insert(epoch * 100 + 50 + i)).collect();
            for h in hs.iter().skip(1).step_by(2).chain(more.iter()) {
                s.remove(*h);
            }
            assert_eq!(s.len, 0, "epoch {epoch} should drain");
            assert!(s.entries.len() <= 24, "bounded by peak liveness");
        }
    }
}
