//! A map over dense, mostly increasing integer ids.
//!
//! Per-request bookkeeping is keyed by node-sequential transaction ids
//! (§4.1.1): ids are issued in order and retire roughly in order, so the
//! live set is a short window above the oldest live id. [`IdWindow`]
//! stores that window as a ring of slots indexed by `id - base`, which
//! makes insert and remove a subtraction and an index instead of a hash.

use std::collections::VecDeque;

/// A `HashMap<u64, T>` replacement for ids that are dense near the
/// oldest live one. Slots of removed or never-inserted ids inside the
/// window are holes; the window drops its leading holes on every
/// remove, so it spans from the oldest live id to the newest one
/// inserted, however many ids retired before.
#[derive(Debug, Clone)]
pub struct IdWindow<T> {
    /// Id of `slots[0]`; meaningless while `slots` is empty.
    base: u64,
    slots: VecDeque<Option<T>>,
    len: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }
}

impl<T> IdWindow<T> {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `value` under `id`, returning the value it replaces. An id
    /// beyond the window's end widens it, leaving holes between.
    ///
    /// # Panics
    ///
    /// If `id` is below the oldest live id: callers insert ids in issue
    /// order, so such an id shows a bookkeeping bug.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        }
        assert!(id >= self.base, "id {id} below the oldest live id");
        let idx = (id - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Take the value stored under `id`; `None` for ids never inserted,
    /// already removed, or below the window.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let idx = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(idx)?.take()?;
        self.len -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots the window spans, holes included (live entries at its ends
    /// bound it; a drained window spans none).
    pub fn span(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_ids_round_trip() {
        let mut w = IdWindow::new();
        for id in 100..110 {
            assert_eq!(w.insert(id, id * 2), None);
        }
        assert_eq!(w.len(), 10);
        for id in 100..110 {
            assert_eq!(w.remove(id), Some(id * 2));
        }
        assert!(w.is_empty());
        assert_eq!(w.span(), 0);
    }

    #[test]
    fn out_of_order_removal_trims_only_the_front() {
        let mut w = IdWindow::new();
        for id in 0..4 {
            w.insert(id, ());
        }
        assert_eq!(w.remove(2), Some(()));
        assert_eq!(w.span(), 4, "a hole in the middle keeps its slot");
        assert_eq!(w.remove(0), Some(()));
        assert_eq!(w.span(), 3);
        assert_eq!(w.remove(1), Some(()));
        assert_eq!(w.span(), 1, "the hole at 2 is trimmed with the front");
        assert_eq!(w.remove(3), Some(()));
    }

    #[test]
    fn unknown_stale_and_repeated_ids_are_none() {
        let mut w = IdWindow::new();
        w.insert(10, 'a');
        w.insert(13, 'b'); // holes at 11 and 12
        assert_eq!(w.remove(11), None);
        assert_eq!(w.remove(99), None);
        assert_eq!(w.remove(10), Some('a'));
        assert_eq!(w.remove(10), None, "already removed");
        assert_eq!(w.remove(5), None, "below the window");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn insert_replaces_and_restarts_a_drained_window() {
        let mut w = IdWindow::new();
        w.insert(50, 1);
        assert_eq!(w.insert(50, 2), Some(1));
        assert_eq!(w.remove(50), Some(2));
        // Drained: the next id may be anywhere, even below the old base.
        w.insert(7, 3);
        assert_eq!((w.len(), w.span()), (1, 1));
    }
}
