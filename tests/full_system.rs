//! Cross-crate integration tests: the full cores → router → MAC → HMC →
//! response path, exercised by every workload in the suite.

use mac_repro::prelude::*;

fn small_cfg(threads: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(threads);
    cfg.workload.scale = 1;
    cfg.max_cycles = 100_000_000;
    cfg
}

/// The fundamental conservation invariant: every raw request a workload
/// issues is completed exactly once, with and without the MAC.
#[test]
fn every_workload_completes_all_requests() {
    let cfg = small_cfg(4);
    for w in all_workloads() {
        let (with, without) = run_pair(w.as_ref(), &cfg);
        assert!(with.soc.raw_requests > 0, "{}", w.name());
        assert_eq!(
            with.soc.raw_requests,
            with.soc.completions,
            "{}: lost or duplicated completions with MAC",
            w.name()
        );
        assert_eq!(
            without.soc.raw_requests,
            without.soc.completions,
            "{}: lost or duplicated completions without MAC",
            w.name()
        );
        assert_eq!(
            with.soc.raw_requests,
            without.soc.raw_requests,
            "{}: the two modes must replay identical traces",
            w.name()
        );
    }
}

/// The MAC never increases the transaction count, and it reduces it for
/// every benchmark in the suite.
#[test]
fn mac_reduces_transactions_everywhere() {
    let cfg = small_cfg(8);
    for w in all_workloads() {
        let (with, without) = run_pair(w.as_ref(), &cfg);
        assert!(
            with.hmc.accesses() < without.hmc.accesses(),
            "{}: {} vs {} transactions",
            w.name(),
            with.hmc.accesses(),
            without.hmc.accesses()
        );
        assert!(
            with.coalescing_efficiency() > 0.10,
            "{}: coalescing efficiency {:.3} too low",
            w.name(),
            with.coalescing_efficiency()
        );
    }
}

/// Raw satisfied at the device equals raw requests issued: no transaction
/// carries a target it should not.
#[test]
fn device_satisfies_exactly_the_issued_requests() {
    let cfg = small_cfg(4);
    for w in all_workloads().into_iter().take(4) {
        let r = run_workload(w.as_ref(), &cfg, RunOptions::default());
        // Fences never reach the device.
        let expected = r.soc.raw_requests - r.mac.raw_fences;
        assert_eq!(r.hmc.raw_satisfied, expected, "{}", w.name());
    }
}

/// Bandwidth efficiency with the MAC always beats the raw 16 B floor and
/// never exceeds the 256 B ceiling (Eq. 1 bounds).
#[test]
fn bandwidth_efficiency_stays_within_analytic_bounds() {
    let cfg = small_cfg(8);
    for w in all_workloads() {
        let r = run_workload(w.as_ref(), &cfg, RunOptions::default());
        let eff = r.bandwidth_efficiency();
        assert!(eff >= 1.0 / 3.0 - 1e-9, "{}: {eff}", w.name());
        assert!(eff <= 256.0 / 288.0 + 1e-9, "{}: {eff}", w.name());
    }
}

/// Thread scaling: more threads never reduce coalescing opportunity on
/// the suite mean (Figure 10's rising trend).
#[test]
fn coalescing_improves_with_thread_count() {
    let mean_eff = |threads: usize| {
        let cfg = small_cfg(threads);
        let ws = all_workloads();
        let total: f64 = ws
            .iter()
            .map(|w| run_workload(w.as_ref(), &cfg, RunOptions::default()).coalescing_efficiency())
            .sum();
        total / ws.len() as f64
    };
    let e2 = mean_eff(2);
    let e8 = mean_eff(8);
    assert!(
        e8 > e2 - 0.02,
        "8-thread efficiency {e8:.3} should not fall below 2-thread {e2:.3}"
    );
}

/// Bank conflicts drop with the MAC on conflict-prone workloads.
#[test]
fn conflicts_reduced_on_suite() {
    let cfg = small_cfg(8);
    let mut reduced = 0;
    let mut total = 0;
    for w in all_workloads() {
        let (with, without) = run_pair(w.as_ref(), &cfg);
        total += 1;
        if with.bank_conflicts() < without.bank_conflicts() {
            reduced += 1;
        }
    }
    assert!(
        reduced * 4 >= total * 3,
        "only {reduced}/{total} benchmarks reduced conflicts"
    );
}

/// The memory-system speedup (Figure 17) is positive for every workload.
#[test]
fn memory_speedup_positive_everywhere() {
    let cfg = small_cfg(8);
    for w in all_workloads() {
        let (with, without) = run_pair(w.as_ref(), &cfg);
        let s = with.memory_speedup_vs(&without);
        assert!(s > 0.0, "{}: speedup {s:.2}%", w.name());
    }
}

/// A multi-node NUMA system (Figure 4) serves local and remote traffic
/// correctly under a real workload trace.
#[test]
fn two_node_numa_completes_workload() {
    use mac_repro::sim::SystemSim;
    let mut cfg = SystemConfig::paper(4);
    cfg.soc.nodes = 2;
    let params = WorkloadParams {
        threads: 4,
        scale: 1,
        seed: 11,
    };
    let w = by_name("sg").unwrap();
    let mk = || -> Vec<Box<dyn ThreadProgram>> {
        w.generate(&params)
            .into_iter()
            .map(|ops| Box::new(ReplayProgram::new(ops)) as Box<dyn ThreadProgram>)
            .collect()
    };
    let mut sim = SystemSim::new_multi(&cfg, vec![mk(), mk()]);
    let r = sim.run(200_000_000);
    assert_eq!(r.soc.raw_requests, r.soc.completions);
    assert!(r.soc.raw_requests > 0);
}

/// §4.3 applicability: the same MAC coalesces identically over the HBM
/// back end, and MAC still reduces transactions and total latency there.
#[test]
fn hbm_backend_serves_the_suite() {
    let mut cfg = ExperimentConfig::paper(8);
    cfg.workload.scale = 1;
    cfg.system = cfg.system.with_hbm();
    for w in all_workloads().into_iter().take(4) {
        let (with, without) = run_pair(w.as_ref(), &cfg);
        assert_eq!(with.soc.raw_requests, with.soc.completions, "{}", w.name());
        assert!(with.hmc.accesses() < without.hmc.accesses(), "{}", w.name());
        assert!(
            with.memory_speedup_vs(&without) > 0.0,
            "{}: MAC must still win on HBM",
            w.name()
        );
    }
}

/// The open-page HBM back end records row hits for row-local traffic;
/// the closed-page HMC back end never does (§2.2.1).
#[test]
fn row_hits_only_on_open_page_backend() {
    let mut cfg = ExperimentConfig::paper(8);
    cfg.workload.scale = 1;
    let w = by_name("sp").unwrap(); // strongly row-local line sweeps
    let hmc = run_workload(w.as_ref(), &cfg, RunOptions::default());
    assert_eq!(hmc.hmc.row_hits, 0, "HMC is closed-page");
    cfg.system = cfg.system.with_hbm();
    let hbm = run_workload(w.as_ref(), &cfg, RunOptions::default());
    assert!(hbm.hmc.row_hits > 0, "HBM open-page should hit rows");
}

/// §2.2 baseline: the DDR back end's row-hit harvesting absorbs same-row
/// streams (row hits observed), while closed-page HMC records none.
#[test]
fn ddr_baseline_harvests_row_hits() {
    let mut cfg = ExperimentConfig::paper(8);
    cfg.workload.scale = 1;
    cfg.system = cfg.system.with_ddr().without_mac();
    let w = by_name("sp").unwrap();
    let r = run_workload(w.as_ref(), &cfg, RunOptions::default());
    assert_eq!(r.soc.raw_requests, r.soc.completions);
    assert!(
        r.hmc.row_hits * 2 > r.hmc.accesses(),
        "row-local SP should hit open 8 KB rows: {} hits / {} accesses",
        r.hmc.row_hits,
        r.hmc.accesses()
    );
}

/// The latency distribution is well-formed and the MAC improves the
/// median on a representative workload.
#[test]
fn latency_quantiles_are_ordered_and_improved() {
    let mut cfg = ExperimentConfig::paper(8);
    cfg.workload.scale = 1;
    let (with, without) = run_pair(by_name("sg").unwrap().as_ref(), &cfg);
    for r in [&with, &without] {
        assert!(r.latency_quantile(0.5) <= r.latency_quantile(0.95));
        assert!(r.latency_quantile(0.95) <= r.latency_quantile(0.99));
        assert!(r.latency_quantile(0.99) > 0);
    }
    assert!(
        with.latency_quantile(0.5) < without.latency_quantile(0.5),
        "median access latency improves with MAC: {} vs {}",
        with.latency_quantile(0.5),
        without.latency_quantile(0.5)
    );
}
