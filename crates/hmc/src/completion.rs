//! The time-ordered queue every back end holds its in-flight responses in.
//!
//! A device computes each response's completion cycle at submit time,
//! but completion cycles are not monotonic in submission order, so the
//! front end must drain them by cycle. [`CompletionQueue`] is a min-heap
//! keyed by `(cycle, push sequence)` that carries the payload inside the
//! heap entry: ties on the cycle drain in push order, and no side table
//! is needed to find the payload once its key surfaces.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use mac_types::Cycle;

/// One queued payload; ordered by `(at, seq)` only.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: Cycle,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Cycle, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Payloads waiting for their cycle, earliest first, ties in push
/// order. Push sequences are unique, so the drain order is total and
/// independent of the heap's internal layout.
#[derive(Debug, Clone)]
pub struct CompletionQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

impl<T> Default for CompletionQueue<T> {
    fn default() -> Self {
        CompletionQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> CompletionQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `item` for cycle `at`, behind everything already queued for
    /// the same cycle.
    pub fn push(&mut self, at: Cycle, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, item }));
    }

    /// The head: the earliest cycle and its first-pushed payload.
    pub fn peek(&self) -> Option<(Cycle, &T)> {
        self.heap.peek().map(|Reverse(e)| (e.at, &e.item))
    }

    /// The head's cycle.
    pub fn next_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Remove and return the head.
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|Reverse(e)| e.item)
    }

    /// Remove and return the head if it is due by `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<T> {
        if self.next_at()? > now {
            return None;
        }
        self.pop()
    }

    /// Remove and yield every payload due by `now`, in order. Payloads
    /// the iterator is dropped before yielding stay queued.
    pub fn drain(&mut self, now: Cycle) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.pop_due(now))
    }

    /// Payloads queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_by_cycle_then_push_order() {
        let mut q = CompletionQueue::new();
        q.push(30, 'a');
        q.push(10, 'b');
        q.push(30, 'c');
        q.push(10, 'd');
        assert_eq!(q.next_at(), Some(10));
        assert_eq!(q.drain(29).collect::<String>(), "bd");
        assert_eq!(q.len(), 2);
        assert_eq!(q.drain(30).collect::<String>(), "ac");
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_leaves_future_heads() {
        let mut q = CompletionQueue::new();
        q.push(5, 1);
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.peek(), Some((5, &1)));
        assert_eq!(q.pop_due(5), Some(1));
        assert_eq!(q.pop_due(99), None);
    }
}
