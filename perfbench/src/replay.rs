//! Component replay (traced run only): one simulation's generated raw
//! requests, threads interleaved round-robin, fed through a standalone
//! MAC, HMC device and response router with every call timed.
//!
//! The replay has no cores, no request router and no cube fabric: it
//! offers the next raw request every cycle, so its accept, merge and
//! backpressure counts are its own and are not comparable with the full
//! run's. Only the per-call host times are reported from it.

use std::collections::VecDeque;
use std::time::Instant;

use hmc_model::HmcDevice;
use mac_coalescer::{Mac, MacEvent, ResponseRouter};
use mac_types::{
    FlitMap, HmcRequest, MemOpKind, NodeId, RawRequest, ReqSize, SystemConfig, Target,
    TransactionId,
};
use soc_sim::ThreadOp;

/// Call counts and accumulated host nanoseconds of one or more replays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayStats {
    /// Raw requests replayed.
    pub raws: u64,
    /// `Mac::try_accept_with_backlog` calls.
    pub accepts: u64,
    /// Accept calls refused (ARQ full).
    pub accept_rejects: u64,
    /// Nanoseconds inside accept calls.
    pub accept_ns: u64,
    /// `Mac::tick` calls.
    pub ticks: u64,
    /// Nanoseconds inside `Mac::tick`.
    pub tick_ns: u64,
    /// `ResponseRouter::expand` calls.
    pub expands: u64,
    /// Nanoseconds inside `expand`.
    pub expand_ns: u64,
    /// `HmcDevice::can_accept` calls.
    pub can_accepts: u64,
    /// `can_accept` calls that returned false (vault queue full).
    pub backpressured: u64,
    /// `HmcDevice::submit` calls.
    pub submits: u64,
    /// Nanoseconds inside `submit` and the `can_accept` probes before it.
    pub submit_ns: u64,
    /// `HmcDevice::drain_completed` calls.
    pub drains: u64,
    /// Nanoseconds inside `drain_completed`.
    pub drain_ns: u64,
    /// Raw completions the response router produced.
    pub completions: u64,
}

impl ReplayStats {
    /// Add another replay's counts.
    pub fn add(&mut self, o: &ReplayStats) {
        self.raws += o.raws;
        self.accepts += o.accepts;
        self.accept_rejects += o.accept_rejects;
        self.accept_ns += o.accept_ns;
        self.ticks += o.ticks;
        self.tick_ns += o.tick_ns;
        self.expands += o.expands;
        self.expand_ns += o.expand_ns;
        self.can_accepts += o.can_accepts;
        self.backpressured += o.backpressured;
        self.submits += o.submits;
        self.submit_ns += o.submit_ns;
        self.drains += o.drains;
        self.drain_ns += o.drain_ns;
        self.completions += o.completions;
    }

    /// Host nanoseconds inside MAC and response-router calls.
    pub fn core_ns(&self) -> u64 {
        self.accept_ns + self.tick_ns + self.expand_ns
    }

    /// Host nanoseconds inside device calls.
    pub fn hmc_ns(&self) -> u64 {
        self.submit_ns + self.drain_ns
    }
}

/// The memory operations of `traces`, threads interleaved round-robin,
/// as raw requests with sequential ids.
pub fn raw_stream(traces: &[Vec<ThreadOp>]) -> Vec<RawRequest> {
    let mut cursors: Vec<_> = traces.iter().map(|t| t.iter()).collect();
    let mut tags = vec![0u16; traces.len()];
    let mut out = Vec::new();
    loop {
        let mut live = false;
        for (tid, cur) in cursors.iter_mut().enumerate() {
            // Each thread contributes its next memory operation, if any.
            let Some((addr, kind)) = cur.find_map(|op| match *op {
                ThreadOp::Mem { addr, kind } => Some((addr, kind)),
                _ => None,
            }) else {
                continue;
            };
            live = true;
            out.push(RawRequest {
                id: TransactionId(out.len() as u64),
                addr,
                kind,
                node: NodeId(0),
                home: NodeId(0),
                target: Target {
                    tid: tid as u16,
                    tag: tags[tid],
                    flit: addr.flit(),
                },
                issued_at: 0,
            });
            tags[tid] = tags[tid].wrapping_add(1);
        }
        if !live {
            return out;
        }
    }
}

/// A single-FLIT transaction for one raw request (the no-MAC path).
fn single(raw: &RawRequest, now: u64) -> HmcRequest {
    let mut fm = FlitMap::new();
    fm.set(raw.addr.flit());
    HmcRequest {
        addr: raw.addr.flit_base(),
        size: ReqSize::B16,
        is_write: raw.kind == MemOpKind::Store,
        is_atomic: raw.kind == MemOpKind::Atomic,
        flit_map: fm,
        targets: vec![raw.target],
        raw_ids: vec![raw.id],
        dispatched_at: now,
    }
}

/// Time `f`, adding its nanoseconds to `acc`.
#[inline]
fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_nanos() as u64;
    out
}

/// Replay `raws` under `cfg` (its MAC and HMC configuration; the MAC is
/// skipped when `cfg.mac_disabled`). Panics if the replay does not drain
/// within a generous cycle cap, which would be a bug in the components.
pub fn replay(cfg: &SystemConfig, raws: &[RawRequest]) -> ReplayStats {
    let mut st = ReplayStats {
        raws: raws.len() as u64,
        ..ReplayStats::default()
    };
    let mut mac = Mac::new(&cfg.mac);
    let mut dev = HmcDevice::new(&cfg.hmc);
    let mut rsp = ResponseRouter::new();
    let mut queue: VecDeque<HmcRequest> = VecDeque::new();
    let accepts = cfg.mac.accepts_per_cycle.max(1);
    let depth = cfg.mac.router_queue_depth;
    let cap = 1_000_000 + 1_000 * raws.len() as u64;
    let (mut next, mut now) = (0usize, 0u64);
    loop {
        if cfg.mac_disabled {
            // One raw request per cycle straight to the device; fences
            // retire at once because the queue is FIFO.
            if let Some(raw) = raws.get(next) {
                next += 1;
                if raw.kind != MemOpKind::Fence {
                    queue.push_back(single(raw, now));
                }
            }
        } else {
            for _ in 0..accepts {
                let Some(&raw) = raws.get(next) else { break };
                let backlog = (raws.len() - next - 1).min(depth);
                st.accepts += 1;
                if timed(&mut st.accept_ns, || {
                    mac.try_accept_with_backlog(raw, now, backlog)
                }) {
                    next += 1;
                } else {
                    st.accept_rejects += 1;
                    break;
                }
            }
            st.ticks += 1;
            for ev in timed(&mut st.tick_ns, || mac.tick(now)) {
                if let MacEvent::Dispatch(req) = ev {
                    queue.push_back(req);
                }
            }
        }
        while let Some(req) = queue.front() {
            st.can_accepts += 1;
            if !timed(&mut st.submit_ns, || dev.can_accept(req, now)) {
                st.backpressured += 1;
                break;
            }
            let req = queue.pop_front().expect("front checked");
            st.submits += 1;
            timed(&mut st.submit_ns, || dev.submit(req, now));
        }
        st.drains += 1;
        for r in timed(&mut st.drain_ns, || dev.drain_completed(now)) {
            st.expands += 1;
            st.completions += timed(&mut st.expand_ns, || rsp.expand(&r)).len() as u64;
        }
        if next == raws.len() && mac.is_drained() && queue.is_empty() && dev.pending() == 0 {
            return st;
        }
        now += 1;
        assert!(now < cap, "component replay did not drain by cycle {cap}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::PhysAddr;

    fn load(addr: u64) -> ThreadOp {
        ThreadOp::Mem {
            addr: PhysAddr::new(addr),
            kind: MemOpKind::Load,
        }
    }

    #[test]
    fn stream_interleaves_threads_round_robin() {
        let traces = vec![
            vec![load(0), ThreadOp::Compute(3), load(16), ThreadOp::Done],
            vec![ThreadOp::Spm, load(4096)],
        ];
        let raws = raw_stream(&traces);
        let order: Vec<(u16, u64)> = raws.iter().map(|r| (r.target.tid, r.addr.raw())).collect();
        assert_eq!(order, vec![(0, 0), (1, 4096), (0, 16)]);
        assert!(raws.iter().enumerate().all(|(i, r)| r.id.0 == i as u64));
    }

    #[test]
    fn replay_completes_every_raw_request_with_and_without_mac() {
        let traces: Vec<Vec<ThreadOp>> = (0..4)
            .map(|t| (0..64).map(|i| load((t << 20) | (i * 16))).collect())
            .collect();
        let raws = raw_stream(&traces);
        let mut cfg = SystemConfig::paper(4);
        let with = replay(&cfg, &raws);
        assert_eq!(with.completions, raws.len() as u64);
        assert!(with.submits < raws.len() as u64, "sequential rows coalesce");
        cfg.mac_disabled = true;
        let without = replay(&cfg, &raws);
        assert_eq!(without.completions, raws.len() as u64);
        assert_eq!(without.submits, raws.len() as u64);
        assert_eq!((without.accepts, without.ticks), (0, 0));
    }
}
