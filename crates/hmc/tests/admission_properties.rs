//! `accept_at` is exact: it names the first cycle at which the pruning
//! `can_accept` probe admits, for the bare queue and for every back end.
//! The event-driven run loop skips straight to that cycle, so an answer
//! that is too late would change simulated results and one that is too
//! early would waste ticks.

use proptest::prelude::*;

use hmc_model::{AdmissionQueue, DdrDevice, HbmDevice, HmcDevice, MemoryDevice};
use mac_types::{
    Cycle, DdrConfig, FlitMap, HbmConfig, HmcConfig, HmcRequest, PhysAddr, ReqSize, Target,
    TransactionId,
};

fn req(addr: u64, size: ReqSize, at: Cycle) -> HmcRequest {
    let a = PhysAddr::new(addr);
    let mut fm = FlitMap::new();
    fm.set(a.flit());
    HmcRequest {
        addr: a,
        size,
        is_write: false,
        is_atomic: false,
        flit_map: fm,
        targets: vec![Target {
            tid: 0,
            tag: 0,
            flit: a.flit(),
        }],
        raw_ids: vec![TransactionId(at)],
        dispatched_at: at,
    }
}

/// The first cycle `>= now` at which a clone of `q` admits, by probing
/// every cycle. Terminates: once past the largest finish time the queue
/// is empty and any depth of at least 1 admits.
fn brute_force_accept(q: &AdmissionQueue, now: Cycle) -> Cycle {
    let mut probe = q.clone();
    (now..)
        .find(|&t| probe.can_accept(t))
        .expect("admits eventually")
}

proptest! {
    /// Non-monotonic finish times, depths 1–40, a random probe cycle:
    /// `accept_at` equals the brute-force answer and leaves the queue as
    /// it was.
    #[test]
    fn accept_at_is_the_first_admitting_cycle(
        finish in prop::collection::vec(0u64..400, 0..60),
        depth in 1usize..41,
        now in 0u64..450,
    ) {
        let mut q = AdmissionQueue::new(depth);
        for &t in &finish {
            q.push(t);
        }
        let before = q.clone();
        let at = q.accept_at(now);
        prop_assert_eq!(&q, &before, "accept_at must not prune");
        prop_assert_eq!(at, brute_force_accept(&q, now));
    }

    /// The same holds after the queue was already pruned at an earlier
    /// cycle (the state a run loop's dispatch probe leaves behind).
    #[test]
    fn accept_at_is_exact_after_earlier_pruning(
        finish in prop::collection::vec(0u64..400, 1..60),
        depth in 1usize..41,
        first in 0u64..200,
        later in 0u64..250,
    ) {
        let mut q = AdmissionQueue::new(depth);
        for &t in &finish {
            q.push(t);
        }
        q.can_accept(first);
        let now = first + later;
        prop_assert_eq!(q.accept_at(now), brute_force_accept(&q, now));
    }
}

/// Submit `reqs` in order, each at the cycle `accept_at` names, the way
/// the run loop drains a dispatch queue. Before each submit, a clone of
/// the device must refuse the request at every earlier cycle and admit
/// it at the named one. Returns how many requests had to wait.
fn drain_in_accept_order<D: MemoryDevice + Clone>(mut dev: D, reqs: &[HmcRequest]) -> usize {
    let mut now = 0;
    let mut waited = 0;
    for (i, r) in reqs.iter().enumerate() {
        let at = dev.accept_at(r, now);
        let mut probe = dev.clone();
        for t in now..at {
            assert!(
                !probe.can_accept(r, t),
                "request {i}: admitted at {t} < {at}"
            );
        }
        assert!(probe.can_accept(r, at), "request {i}: refused at {at}");
        waited += (at > now) as usize;
        now = at;
        assert!(dev.can_accept(r, now));
        dev.submit(r.clone(), now);
    }
    waited
}

/// A burst mixing sizes and banks, so finish times leave the queue out
/// of order. `stride` keeps every address on one vault or channel.
fn burst(stride: u64) -> Vec<HmcRequest> {
    let sizes = [ReqSize::B16, ReqSize::B256, ReqSize::B64, ReqSize::B32];
    (0..48u64)
        .map(|i| req((i * 7 % 5) * stride, sizes[i as usize % 4], 0))
        .collect()
}

#[test]
fn hmc_device_accept_at_agrees_with_can_accept() {
    let cfg = HmcConfig {
        vault_queue_depth: 4,
        ..HmcConfig::default()
    };
    // Rows `vaults` apart share vault 0 and walk its banks.
    let stride = cfg.vaults as u64 * 256;
    let waited = drain_in_accept_order(HmcDevice::new(&cfg), &burst(stride));
    assert!(waited > 0, "the burst must fill the vault queue");
}

#[test]
fn hbm_device_accept_at_agrees_with_can_accept() {
    let cfg = HbmConfig {
        channel_queue_depth: 4,
        ..HbmConfig::default()
    };
    // Rows `channels` apart share channel 0 and walk its banks.
    let stride = cfg.channels as u64 * cfg.row_bytes;
    let waited = drain_in_accept_order(HbmDevice::new(&cfg), &burst(stride));
    assert!(waited > 0, "the burst must fill the channel queue");
}

#[test]
fn ddr_device_accept_at_agrees_with_can_accept() {
    let cfg = DdrConfig {
        queue_depth: 4,
        ..DdrConfig::default()
    };
    // One controller queue; a 64 B stride walks the banks.
    let waited = drain_in_accept_order(DdrDevice::new(&cfg), &burst(64));
    assert!(waited > 0, "the burst must fill the controller queue");
}
