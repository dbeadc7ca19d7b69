//! Golden equivalence tests for the event-driven fast path (DESIGN.md
//! §14): the idle-span-skipping run loop must produce results
//! byte-identical to the cycle-stepped reference — same `RunReport`,
//! same metrics time-series, same conformance-checker observations —
//! on every configuration the manifest exercises.
//!
//! The manifest's entries all dispatch through the same two run loops
//! (`SystemSim` / `NetSystem`), so coverage here is by configuration
//! axis: the full smoke baseline set (calibration pairs, the 2-cube
//! HostOnly net run, and the idle-heavy latency entries), per-cube MAC
//! placement, multi-node interconnects, disabled MAC, the HBM/DDR
//! backends, and runs with metrics sampling attached. A seeded
//! mac-check fuzz mini-campaign (50 iterations, checker + oracle
//! attached) rides on top, exercising the fast path under adversarial
//! configs and address streams.

use mac_metrics::MetricsHub;
use mac_sim::baseline::baseline_requests;
use mac_sim::experiment::{
    run_ops_checked, run_workload, ExperimentConfig, RunObservers, RunOptions,
};
use mac_sim::fuzz::{run_fuzz, FuzzOptions};
use mac_sim::report::RunReport;
use mac_telemetry::Profiler;
use mac_types::{MacPlacement, MemBackend, NetTopology, SystemConfig};
use mac_workloads::{by_name, WorkloadParams};

/// Options attaching only `metrics`, in the given run-loop mode.
fn sampled(metrics: MetricsHub, stepped: bool) -> RunOptions {
    RunOptions {
        observers: RunObservers {
            metrics,
            ..RunObservers::default()
        },
        stepped,
    }
}

/// Run `workload` under `cfg` in both modes, with a metrics hub
/// sampling every `interval` cycles in each, and assert the reports and
/// exported CSV time-series are identical.
fn assert_modes_identical(workload: &str, cfg: &ExperimentConfig, interval: u64) -> RunReport {
    let w = by_name(workload).expect("workload registered");

    let stepped_hub = MetricsHub::new(interval);
    let stepped = run_workload(w.as_ref(), cfg, sampled(stepped_hub.clone(), true));

    let event_hub = MetricsHub::new(interval);
    let event = run_workload(w.as_ref(), cfg, sampled(event_hub.clone(), false));

    assert_eq!(
        stepped, event,
        "{workload}: event-driven report diverged from stepped reference"
    );
    let stepped_csv = stepped_hub.snapshot().expect("sampled").to_csv();
    let event_csv = event_hub.snapshot().expect("sampled").to_csv();
    assert_eq!(
        stepped_csv, event_csv,
        "{workload}: metrics time-series diverged between modes"
    );
    event
}

#[test]
fn baseline_set_is_mode_identical() {
    // The full smoke baseline set: calibration pairs at 4 threads, the
    // 2-cube HostOnly scatter/gather run, and the three idle-heavy
    // latency entries where the fast path actually skips (the sampler
    // clamp is what this asserts: interval boundaries inside skipped
    // spans must still be visited).
    for (label, req) in baseline_requests() {
        let report = assert_modes_identical(&req.workload, &req.cfg, 10_000);
        assert!(report.cycles > 0, "{label}: empty run proves nothing");
        assert_eq!(
            report.soc.raw_requests, report.soc.completions,
            "{label}: run must drain"
        );
    }
}

#[test]
fn per_cube_placement_is_mode_identical() {
    // NetSystem has its own run loop and skip logic; cover both mapped
    // placements over a 4-cube chain and a 2-cube degenerate network.
    for cubes in [2usize, 4] {
        let mut cfg = ExperimentConfig::paper(4);
        cfg.workload.scale = 1;
        cfg.max_cycles = 50_000_000;
        cfg.system = cfg
            .system
            .with_net(cubes, NetTopology::DaisyChain, MacPlacement::PerCube);
        let report = assert_modes_identical("sg", &cfg, 5_000);
        assert!(report.cycles > 0);
    }
}

#[test]
fn multi_node_interconnect_is_mode_identical() {
    // Multiple SoC nodes share one device through the interconnect
    // queues; their in-flight messages are one of the next_event
    // sources.
    let mut cfg = ExperimentConfig::paper(4);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    cfg.system.soc.nodes = 2;
    let report = assert_modes_identical("stream", &cfg, 10_000);
    assert!(report.cycles > 0);
}

#[test]
fn disabled_mac_and_alt_backends_are_mode_identical() {
    // The baseline (MAC-bypassed) path and the HBM/DDR memory models
    // take different dispatch and completion code; the skip must bound
    // all of them.
    let mut nomac = ExperimentConfig::paper(2);
    nomac.workload.scale = 1;
    nomac.max_cycles = 50_000_000;
    nomac.system.mac_disabled = true;
    assert_modes_identical("gups", &nomac, 10_000);

    for backend in [MemBackend::Hbm, MemBackend::Ddr] {
        let mut cfg = ExperimentConfig::paper(2);
        cfg.workload.scale = 1;
        cfg.max_cycles = 50_000_000;
        cfg.system.backend = backend;
        assert_modes_identical("stream", &cfg, 10_000);
    }
}

#[test]
fn idle_heavy_entry_is_cycle_exact_under_fine_sampling() {
    // A 1-cycle metrics interval forces the skip loop to visit every
    // single cycle boundary inside skipped spans — the strongest form
    // of the sampler-clamp contract. Use a tiny run to keep it fast.
    let mut cfg = ExperimentConfig::paper(1);
    cfg.workload.scale = 1;
    cfg.max_cycles = 200_000;
    cfg.system.soc.max_outstanding_per_thread = 1;
    let w = by_name("gups").expect("workload");

    let stepped_hub = MetricsHub::new(1);
    let stepped = run_workload(w.as_ref(), &cfg, sampled(stepped_hub.clone(), true));
    let event_hub = MetricsHub::new(1);
    let event = run_workload(w.as_ref(), &cfg, sampled(event_hub.clone(), false));
    assert_eq!(stepped, event);
    assert_eq!(
        stepped_hub.snapshot().expect("sampled").to_csv(),
        event_hub.snapshot().expect("sampled").to_csv()
    );
}

#[test]
fn fuzz_mini_campaign_is_clean_on_event_driven_loop() {
    // 50 seeded adversarial cases, each simulated by the (default)
    // event-driven loop with the mac-check invariant checker attached
    // and diffed against the functional oracle. The checker's I7 stats
    // batches land on CHECK_BATCH boundaries, which the skip loop must
    // visit at the same cycles as stepped mode — a violation or
    // divergence here would catch a clamp bug the report comparison
    // can't see.
    let dir = std::env::temp_dir().join("mac-eventdriven-fuzz");
    let opts = FuzzOptions {
        iters: 50,
        seed: 0xED,
        out_dir: dir,
        max_cycles: 2_000_000,
        adaptive: false,
    };
    let report = run_fuzz(&opts).expect("fuzz campaign runs");
    assert!(
        report.is_clean(),
        "event-driven fuzz campaign found failures: {:?}",
        report.failures
    );
    assert_eq!(report.iters, 50);
}

/// One checked, sampled and profiled run of `ops` under `sys`: the
/// report, the metrics CSV at a 64-cycle interval, and how many ticks
/// the run loop stepped.
fn checked_run(
    label: &str,
    sys: &SystemConfig,
    ops: &[Vec<Vec<soc_sim::ThreadOp>>],
    stepped: bool,
) -> (RunReport, String, u64) {
    let hub = MetricsHub::new(64);
    let profiler = Profiler::enabled();
    let opts = RunOptions {
        observers: RunObservers {
            metrics: hub.clone(),
            profiler: profiler.clone(),
            ..RunObservers::default()
        },
        stepped,
    };
    let run = run_ops_checked(sys, ops, 50_000_000, opts);
    assert!(
        run.is_clean(),
        "{label} (stepped={stepped}): {:?} {:?}",
        run.violations,
        run.divergences
    );
    let steps = profiler
        .snapshot()
        .expect("enabled profiler")
        .phases
        .iter()
        .find(|(path, _, _)| path.ends_with("/run/step"))
        .map(|&(_, count, _)| count)
        .expect("run loop recorded its steps");
    let csv = hub.snapshot().expect("sampled").to_csv();
    (run.report, csv, steps)
}

#[test]
fn vault_saturated_drains_are_skipped_and_mode_identical() {
    // Open-loop `stream` at 8 threads floods the dispatch queue faster
    // than the vault (channel) queues admit, and the run ends in a long
    // drain where the queue head waits for room. The event-driven loop
    // must jump to the cycle the device admits the head — with results
    // identical to stepping every cycle — and so step at most a quarter
    // of the ticks. The step count is machine-independent: losing the
    // skip fails this test on any host.
    let params = WorkloadParams {
        threads: 8,
        scale: 1,
        ..WorkloadParams::default()
    };
    let ops: Vec<Vec<Vec<soc_sim::ThreadOp>>> = vec![by_name("stream")
        .expect("workload registered")
        .generate(&params)
        .into_iter()
        .map(|t| t.into_iter().take(1_500).collect())
        .collect()];

    let paper = SystemConfig::paper(8);
    let mut hbm = paper.clone();
    hbm.backend = MemBackend::Hbm;
    let mut ddr = paper.clone();
    ddr.backend = MemBackend::Ddr;
    let cases = [
        ("hmc/mac", paper.clone()),
        ("hmc/nomac", paper.clone().without_mac()),
        ("hbm/mac", hbm),
        ("ddr/mac", ddr),
        (
            "per-cube/2",
            paper.with_net(2, NetTopology::DaisyChain, MacPlacement::PerCube),
        ),
    ];
    for (label, sys) in cases {
        let (stepped, stepped_csv, stepped_steps) = checked_run(label, &sys, &ops, true);
        let (event, event_csv, event_steps) = checked_run(label, &sys, &ops, false);
        assert_eq!(stepped, event, "{label}: reports diverged");
        assert_eq!(stepped_csv, event_csv, "{label}: metrics diverged");
        assert_eq!(stepped.soc.completions, stepped.soc.raw_requests, "{label}");
        assert!(
            event_steps * 4 <= stepped_steps,
            "{label}: event-driven loop stepped {event_steps} of {stepped_steps} ticks"
        );
    }
}
