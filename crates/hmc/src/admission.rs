//! The finite command queue every back end gates admission with.
//!
//! HMC vaults, HBM channels and the DDR controller all model their
//! command queue the same way: the finish times of in-flight accesses
//! in submission order, and a fixed depth. An access leaves the queue
//! once its finish time has passed, but only from the front — finish
//! times are not monotonic (a later access to an idle bank can finish
//! before an earlier one to a busy bank), so a finished access behind
//! an unfinished one keeps its slot until the front clears.

use std::collections::VecDeque;

use mac_types::Cycle;

/// Finish times of in-flight accesses, oldest first, plus the depth
/// that bounds them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionQueue {
    finish: VecDeque<Cycle>,
    depth: usize,
}

impl AdmissionQueue {
    /// An empty queue admitting at most `depth` in-flight accesses.
    pub fn new(depth: usize) -> Self {
        AdmissionQueue {
            finish: VecDeque::new(),
            depth,
        }
    }

    /// Whether one more access fits at `now`. Pops the finished front
    /// entries first; the pruning is idempotent, so probing at any
    /// earlier cycle leaves the state a later probe sees unchanged.
    pub fn can_accept(&mut self, now: Cycle) -> bool {
        while self.finish.front().is_some_and(|&t| t <= now) {
            self.finish.pop_front();
        }
        self.finish.len() < self.depth
    }

    /// The earliest cycle `>= now` at which [`AdmissionQueue::can_accept`]
    /// returns true, provided nothing is pushed meanwhile: the front
    /// `len + 1 - depth` entries must all have left, and each leaves no
    /// earlier than its own finish time or any entry ahead of it. A
    /// depth-0 queue never admits; it answers the cycle it empties.
    /// Does not prune.
    pub fn accept_at(&self, now: Cycle) -> Cycle {
        let need = (self.finish.len() + 1).saturating_sub(self.depth);
        self.finish.iter().take(need).fold(now, |at, &t| at.max(t))
    }

    /// Record an admitted access finishing at `finish`; returns the
    /// entries now held, finished or not (those behind an unfinished
    /// front have not been popped yet).
    pub fn push(&mut self, finish: Cycle) -> usize {
        self.finish.push_back(finish);
        self.finish.len()
    }

    /// Accesses still in service at `now`. Non-mutating, so observers
    /// can sample it without pruning.
    pub fn occupancy(&self, now: Cycle) -> usize {
        self.finish.iter().filter(|&&t| t > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(depth: usize, finish: &[Cycle]) -> AdmissionQueue {
        let mut q = AdmissionQueue::new(depth);
        for &t in finish {
            q.push(t);
        }
        q
    }

    #[test]
    fn room_left_accepts_now() {
        let q = queue(3, &[50, 40]);
        assert_eq!(q.accept_at(7), 7);
    }

    #[test]
    fn full_queue_waits_for_its_front() {
        // Depth 2, full: the front must leave, at 50.
        assert_eq!(queue(2, &[50, 40]).accept_at(7), 50);
        // Only the front has to leave; the entry behind it keeps its slot.
        assert_eq!(queue(2, &[30, 40]).accept_at(7), 30);
    }

    #[test]
    fn a_late_front_holds_back_earlier_finishers() {
        // Depth 1 over three entries: all three must leave, and none can
        // before the front at 90.
        assert_eq!(queue(1, &[90, 10, 20]).accept_at(0), 90);
        assert_eq!(queue(1, &[10, 20, 95]).accept_at(0), 95);
    }

    #[test]
    fn never_earlier_than_now() {
        assert_eq!(queue(1, &[10]).accept_at(25), 25);
    }

    #[test]
    fn zero_depth_never_admits() {
        let mut q = queue(0, &[40, 10]);
        assert_eq!(q.accept_at(3), 40);
        assert!(!q.can_accept(1_000_000));
    }

    #[test]
    fn occupancy_counts_only_unfinished() {
        assert_eq!(queue(4, &[10, 30, 20]).occupancy(15), 2);
    }
}
