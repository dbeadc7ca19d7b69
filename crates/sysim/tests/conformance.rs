//! Conformance-harness integration tests: fence-ordering regressions
//! under both coalescer placements, checker sensitivity to malformed
//! dispatches, and determinism of the fuzzer.

use mac_check::{ConformanceChecker, FinishProbe, StatsProbe};
use mac_sim::fuzz::{decode_reproducer, encode_reproducer, FuzzCase, FuzzOptions};
use mac_sim::{run_fuzz, run_ops_checked, RunOptions};
use mac_types::{
    FlitMap, HmcRequest, MacPlacement, MemOpKind, NetTopology, NodeId, PhysAddr, RawRequest,
    ReqSize, SystemConfig, Target, TransactionId,
};
use soc_sim::ThreadOp;

fn mem(addr: u64, kind: MemOpKind) -> ThreadOp {
    ThreadOp::Mem {
        addr: PhysAddr::new(addr),
        kind,
    }
}

fn fence() -> ThreadOp {
    mem(0, MemOpKind::Fence)
}

/// Per-thread streams that interleave fences with bypass-eligible
/// (sparse, one-FLIT) requests and coalescable same-row runs — the mix
/// most likely to reorder around a fence if retirement is wired wrong.
fn fence_heavy_ops(threads: usize) -> Vec<Vec<ThreadOp>> {
    (0..threads)
        .map(|t| {
            let base = (t as u64) << 12;
            vec![
                // Coalescable cluster on one row.
                mem(base, MemOpKind::Load),
                mem(base + 16, MemOpKind::Load),
                mem(base + 32, MemOpKind::Store),
                fence(),
                // Bypass-eligible singletons after the fence (sparse rows).
                mem(base + 0x10_000, MemOpKind::Load),
                mem(base + 0x20_000, MemOpKind::Store),
                fence(),
                // Atomic (bypass path) then another cluster.
                mem(base + 0x30_000, MemOpKind::Atomic),
                mem(base + 48, MemOpKind::Load),
                fence(),
                mem(base + 64, MemOpKind::Load),
            ]
        })
        .collect()
}

#[test]
fn fence_ordering_holds_under_host_placement() {
    let mut sys = SystemConfig::paper(4);
    sys.mac.bypass_enabled = true;
    let run = run_ops_checked(
        &sys,
        &[fence_heavy_ops(4)],
        1_000_000,
        RunOptions::default(),
    );
    assert!(
        run.is_clean(),
        "violations: {:?}\ndivergences: {:?}",
        run.violations,
        run.divergences
    );
    // 3 fences per thread, all retired through the MAC.
    assert_eq!(run.report.mac.raw_fences, 12);
    assert_eq!(run.report.mac.fences_retired, 12);
    assert_eq!(run.report.soc.raw_requests, run.report.soc.completions);
}

#[test]
fn fence_ordering_holds_under_per_cube_placement() {
    let sys = SystemConfig::paper(4).with_net(2, NetTopology::DaisyChain, MacPlacement::PerCube);
    let run = run_ops_checked(
        &sys,
        &[fence_heavy_ops(4)],
        1_000_000,
        RunOptions::default(),
    );
    assert!(
        run.is_clean(),
        "violations: {:?}\ndivergences: {:?}",
        run.violations,
        run.divergences
    );
    // Per-cube placement retires fences at the host packetizer, so the
    // cube MACs never see them — but every thread must still drain.
    assert_eq!(run.report.mac.fences_retired, 0);
    assert_eq!(run.report.soc.raw_requests, run.report.soc.completions);
}

#[test]
fn fence_ordering_holds_in_baseline_mode() {
    let mut sys = SystemConfig::paper(2);
    sys.mac_disabled = true;
    let run = run_ops_checked(
        &sys,
        &[fence_heavy_ops(2)],
        1_000_000,
        RunOptions::default(),
    );
    assert!(
        run.is_clean(),
        "violations: {:?}\ndivergences: {:?}",
        run.violations,
        run.divergences
    );
}

/// The checker itself must reject a dispatch whose FLIT map claims
/// FLITs outside the packet window (the exact shape the chunk-mask
/// OR-reduction mutation produces) — wired through the same entry
/// points the simulators call.
#[test]
fn checker_flags_malformed_dispatch() {
    let sys = SystemConfig::paper(1);
    let mut chk = ConformanceChecker::new(&sys);
    // Row offset 0x80 = FLIT 8: a 64 B packet there spans FLITs 8..12.
    let addr = PhysAddr::new(0x180);
    let raw = RawRequest {
        id: TransactionId(7),
        addr,
        kind: MemOpKind::Load,
        node: NodeId(0),
        home: NodeId(0),
        target: Target {
            tid: 0,
            tag: 0,
            flit: addr.flit(),
        },
        issued_at: 0,
    };
    chk.on_raw_issued(&raw, 0);
    // A 64 B packet at chunk 4 whose map also claims FLIT 0.
    let mut map = FlitMap::new();
    map.set(addr.flit());
    map.set(0);
    let req = HmcRequest {
        addr,
        size: ReqSize::B64,
        is_write: false,
        is_atomic: false,
        flit_map: map,
        targets: vec![raw.target],
        raw_ids: vec![raw.id],
        dispatched_at: 1,
    };
    chk.on_dispatch(&req, 1);
    assert!(
        chk.violations().iter().any(|v| v.invariant == 6),
        "expected an I6 violation, got {:?}",
        chk.violations()
    );
}

/// A run that silently drops a request must show up both as an I1
/// violation (never acknowledged) and as an oracle divergence.
#[test]
fn checker_flags_dropped_request_at_finish() {
    let sys = SystemConfig::paper(1);
    let mut chk = ConformanceChecker::new(&sys);
    let addr = PhysAddr::new(0x40);
    let raw = RawRequest {
        id: TransactionId(1),
        addr,
        kind: MemOpKind::Load,
        node: NodeId(0),
        home: NodeId(0),
        target: Target {
            tid: 0,
            tag: 0,
            flit: addr.flit(),
        },
        issued_at: 0,
    };
    chk.on_raw_issued(&raw, 0);
    let probe = FinishProbe {
        idle: false,
        soc_raw_requests: 1,
        soc_completions: 0,
        stats: StatsProbe::default(),
    };
    chk.finish(&probe, 100);
    assert!(
        chk.violations().iter().any(|v| v.invariant == 1),
        "expected an I1 violation, got {:?}",
        chk.violations()
    );
}

#[test]
fn fuzz_campaigns_are_deterministic() {
    let dir1 = std::env::temp_dir().join("mac-fuzz-det-1");
    let dir2 = std::env::temp_dir().join("mac-fuzz-det-2");
    let opts = |d: &std::path::Path| FuzzOptions {
        iters: 8,
        seed: 99,
        out_dir: d.to_path_buf(),
        max_cycles: 2_000_000,
        adaptive: false,
    };
    let a = run_fuzz(&opts(&dir1)).expect("io");
    let b = run_fuzz(&opts(&dir2)).expect("io");
    assert_eq!(a.iters, b.iters);
    assert_eq!(a.single_device, b.single_device);
    assert_eq!(a.multi_cube, b.multi_cube);
    assert!(a.is_clean(), "failures: {:?}", a.failures);
    assert!(b.is_clean());
}

#[test]
fn reproducer_survives_encode_decode_and_runs_identically() {
    let sys = SystemConfig::paper(2).with_net(4, NetTopology::Mesh2x2, MacPlacement::HostOnly);
    let case = FuzzCase {
        sys,
        ops: vec![vec![
            vec![
                mem(0x100, MemOpKind::Load),
                fence(),
                mem(0x40_000, MemOpKind::Store),
            ],
            vec![mem(0x110, MemOpKind::Atomic), ThreadOp::Compute(3)],
        ]],
        max_cycles: 500_000,
    };
    let text = encode_reproducer(&case, &[]);
    let back = decode_reproducer(&text).expect("round trip");
    assert_eq!(back.ops, case.ops);
    let a = case.run();
    let b = back.run();
    assert!(a.is_clean() && b.is_clean());
    assert_eq!(a.report.cycles, b.report.cycles);
    assert_eq!(a.report.soc, b.report.soc);
}
