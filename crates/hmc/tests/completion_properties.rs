//! `CompletionQueue` drains in exactly the order of a stable sort by
//! `(cycle, push order)` — the order the devices' former `(cycle, seq)`
//! heap-plus-map pairs produced — so swapping it in leaves every report
//! byte-identical.

use proptest::prelude::*;

use hmc_model::CompletionQueue;
use mac_types::Cycle;

/// The brute-force reference: payloads with their cycle and push index.
#[derive(Default)]
struct Model {
    items: Vec<(Cycle, u64, u32)>,
    pushes: u64,
}

impl Model {
    fn push(&mut self, at: Cycle, item: u32) {
        self.items.push((at, self.pushes, item));
        self.pushes += 1;
    }

    /// Index of the head after a stable sort by `(cycle, push order)`.
    fn head(&self) -> Option<usize> {
        (0..self.items.len()).min_by_key(|&i| (self.items[i].0, self.items[i].1))
    }

    fn peek(&self) -> Option<(Cycle, u32)> {
        self.head().map(|i| (self.items[i].0, self.items[i].2))
    }

    fn pop(&mut self) -> Option<u32> {
        self.head().map(|i| self.items.remove(i).2)
    }

    fn drain(&mut self, now: Cycle) -> Vec<u32> {
        let mut due: Vec<_> = self.items.iter().filter(|e| e.0 <= now).copied().collect();
        due.sort_by_key(|e| (e.0, e.1));
        self.items.retain(|e| e.0 > now);
        due.into_iter().map(|e| e.2).collect()
    }
}

proptest! {
    /// Pushes over a narrow cycle range (many ties), pops, heads popped
    /// and pushed again at their own cycle (they go behind their
    /// ties), peeks, and drains at arbitrary cut points, earlier or
    /// later than any previous one.
    #[test]
    fn drains_in_cycle_then_push_order(
        ops in prop::collection::vec((0u8..6, 0u64..24), 0..300),
    ) {
        let mut q = CompletionQueue::new();
        let mut model = Model::default();
        for (step, &(op, t)) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    q.push(t, step as u32);
                    model.push(t, step as u32);
                }
                2 => {
                    let head = q.peek().map(|(at, &v)| (at, v));
                    prop_assert_eq!(head, model.peek());
                    if let Some((at, v)) = head {
                        prop_assert_eq!(q.pop(), model.pop());
                        q.push(at, v);
                        model.push(at, v);
                    }
                }
                3 => prop_assert_eq!(q.pop(), model.pop()),
                4 => {
                    let due = model.peek().filter(|&(at, _)| at <= t).map(|(_, v)| v);
                    prop_assert_eq!(q.pop_due(t), due);
                    if due.is_some() {
                        model.pop();
                    }
                }
                _ => prop_assert_eq!(q.drain(t).collect::<Vec<_>>(), model.drain(t)),
            }
            prop_assert_eq!(q.len(), model.items.len());
            prop_assert_eq!(q.is_empty(), model.items.is_empty());
            prop_assert_eq!(q.next_at(), model.peek().map(|(at, _)| at));
        }
        prop_assert_eq!(q.drain(Cycle::MAX).collect::<Vec<_>>(), model.drain(Cycle::MAX));
        prop_assert!(q.is_empty());
    }

    /// Peeking at a head that is not accepted and leaving it queued
    /// (the per-cube ingress on an ARQ-full refusal) yields the same
    /// order as the former pop-and-re-push with an unchanged key.
    #[test]
    fn a_refused_head_left_in_place_keeps_its_turn(
        cycles in prop::collection::vec(0u64..16, 1..80),
        refusals in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q = CompletionQueue::new();
        for (i, &t) in cycles.iter().enumerate() {
            q.push(t, i);
        }
        let mut expected: Vec<usize> = (0..cycles.len()).collect();
        expected.sort_by_key(|&i| (cycles[i], i));
        let mut accepted = Vec::new();
        let mut refusals = refusals.iter().cycle();
        let mut streak = 0;
        while let Some((_, &head)) = q.peek() {
            // Refuse at most three times in a row, so the drain ends.
            if *refusals.next().expect("cycles forever") && streak < 3 {
                streak += 1;
                continue;
            }
            streak = 0;
            prop_assert_eq!(q.pop(), Some(head));
            accepted.push(head);
        }
        prop_assert_eq!(accepted, expected);
    }
}
