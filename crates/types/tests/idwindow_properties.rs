//! `IdWindow` is a drop-in for the `HashMap<u64, T>` it replaces on the
//! per-request path: every insert at or above the oldest live id, and
//! every remove, answers exactly as the map would, and a drained window
//! spans no slots.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use mac_types::IdWindow;

proptest! {
    /// Random inserts and removes over a small id range, so removes hit
    /// live ids, holes, already-removed ids, ids below a trimmed base and
    /// ids past the end, and inserts land inside and beyond the window
    /// and repeat ids. Inserts below the oldest live id, which the window
    /// rejects, become removes. The window matches a `HashMap` model
    /// after every step.
    #[test]
    fn matches_a_hashmap_model(
        ops in prop::collection::vec((0u8..2, 0u64..48), 0..240),
        base in 0u64..(1 << 48),
    ) {
        let mut w = IdWindow::new();
        let mut model = HashMap::new();
        for (step, &(op, off)) in ops.iter().enumerate() {
            let id = base + off;
            let below_oldest = model.keys().min().is_some_and(|&o| id < o);
            if op == 0 && !below_oldest {
                prop_assert_eq!(w.insert(id, step), model.insert(id, step));
            } else {
                prop_assert_eq!(w.remove(id), model.remove(&id));
            }
            prop_assert_eq!(w.len(), model.len());
            prop_assert_eq!(w.is_empty(), model.is_empty());
        }
        let mut live: Vec<u64> = model.keys().copied().collect();
        live.sort_unstable();
        for id in live.into_iter().rev() {
            prop_assert_eq!(w.remove(id), model.remove(&id));
        }
        prop_assert!(w.is_empty());
        prop_assert_eq!(w.span(), 0, "a drained window holds no slots");
    }

    /// The node's pattern: sequential ids, some never inserted (fences
    /// retired elsewhere leave holes), removed in a random order with a
    /// duplicate remove of every id. The window spans from the oldest
    /// live id to the newest inserted one and shrinks to empty.
    #[test]
    fn sequential_ids_retired_out_of_order_drain_to_empty(
        keys in prop::collection::vec((any::<u32>(), 0u8..8), 1..200),
    ) {
        let mut w = IdWindow::new();
        let mut issued = Vec::new();
        for (id, &(_, hole)) in (1000u64..).zip(&keys) {
            if hole != 0 {
                prop_assert_eq!(w.insert(id, id * 3), None);
                issued.push(id);
            }
        }
        prop_assert_eq!(w.len(), issued.len());
        let mut order: Vec<(u32, u64)> = issued
            .iter()
            .zip(&keys)
            .map(|(&id, &(k, _))| (k, id))
            .collect();
        order.sort_unstable();
        let newest = issued.last().copied().unwrap_or(0);
        let mut live: BTreeSet<u64> = issued.iter().copied().collect();
        for (_, id) in order {
            prop_assert_eq!(w.remove(id), Some(id * 3));
            prop_assert_eq!(w.remove(id), None, "duplicate remove");
            live.remove(&id);
            prop_assert_eq!(w.len(), live.len());
            let span = live.first().map_or(0, |&oldest| (newest - oldest + 1) as usize);
            prop_assert_eq!(w.span(), span);
        }
        prop_assert!(w.is_empty());
        prop_assert_eq!(w.span(), 0);
    }
}
