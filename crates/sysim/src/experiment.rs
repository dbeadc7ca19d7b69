//! Experiment runners: workload → system → report, with parallel sweeps.
//!
//! These are the low-level building blocks; batch execution with caching
//! and work stealing lives in [`crate::engine`].

use std::sync::Arc;

use mac_check::{ConformanceChecker, OracleReplay, Violation};
use mac_metrics::MetricsHub;
use mac_telemetry::{Profiler, Tracer};
use mac_types::{Fingerprint, Fnv128, MacPlacement, SystemConfig};
use mac_workloads::{Workload, WorkloadParams};
use soc_sim::{ReplayProgram, ThreadOp, ThreadProgram};

use crate::netsystem::NetSystem;
use crate::progress::ProgressProbe;
use crate::report::RunReport;
use crate::system::SystemSim;

/// How to run one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// The system under test.
    pub system: SystemConfig,
    /// Workload generation parameters.
    pub workload: WorkloadParams,
    /// Safety cap on simulated cycles.
    pub max_cycles: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            system: SystemConfig::default(),
            workload: WorkloadParams::default(),
            max_cycles: 200_000_000,
        }
    }
}

impl ExperimentConfig {
    /// The paper's Table 1 system with `threads` hardware threads.
    pub fn paper(threads: usize) -> Self {
        ExperimentConfig {
            system: SystemConfig::paper(threads),
            workload: WorkloadParams {
                threads,
                ..WorkloadParams::default()
            },
            ..ExperimentConfig::default()
        }
    }
}

impl Fingerprint for ExperimentConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        self.system.fingerprint(h);
        self.workload.fingerprint(h);
        h.write_u64(self.max_cycles);
    }
}

/// Run one workload on one configuration. `opts` picks the observers
/// and the run-loop mode; neither changes the report, and
/// `RunOptions::default()` is the plain event-driven run with every
/// observer off.
pub fn run_workload(w: &dyn Workload, cfg: &ExperimentConfig, opts: RunOptions) -> RunReport {
    let programs = w
        .generate(&cfg.workload)
        .into_iter()
        .map(|ops| Box::new(ReplayProgram::new(ops)) as Box<dyn ThreadProgram>)
        .collect();
    simulate(&cfg.system, vec![programs], cfg.max_cycles, opts, None).0
}

/// The full set of observational attachments one run can carry. Every
/// member is purely observational: attaching any combination never
/// changes the [`RunReport`] and none of them enter any fingerprint.
/// `Default` is the all-disabled bundle (no tracer, disabled hub,
/// disabled profiler, no probe).
#[derive(Default)]
pub struct RunObservers {
    /// Optional telemetry tracer (re-tagged per node).
    pub tracer: Option<Tracer>,
    /// Interval-sampled metrics hub ([`MetricsHub::disabled`] for none).
    pub metrics: MetricsHub,
    /// Host-side wall-clock span profiler ([`Profiler::disabled`] for none).
    pub profiler: Profiler,
    /// Live progress mailbox streaming observers poll while the run advances.
    pub progress: Option<Arc<ProgressProbe>>,
}

/// How one run executes: the observer bundle plus the run-loop mode.
#[derive(Default)]
pub struct RunOptions {
    /// The observers to attach.
    pub observers: RunObservers,
    /// Tick every cycle (the reference loop) instead of skipping
    /// provably idle spans. Both modes produce byte-identical reports,
    /// traces, metrics and checker observations (DESIGN.md §14); the
    /// reference mode exists so the equivalence tests can prove it.
    pub stepped: bool,
}

/// Build the simulator `sys` selects for `programs` (one list per
/// node), attach `opts` and `checker`, and run it for at most
/// `max_cycles`. This is the one place that picks the per-cube
/// [`NetSystem`] loop over the host-side [`SystemSim`] loop; everything
/// else (single device, host-side coalescing over a network) runs the
/// latter.
fn simulate(
    sys: &SystemConfig,
    programs: Vec<Vec<Box<dyn ThreadProgram>>>,
    max_cycles: u64,
    opts: RunOptions,
    checker: Option<ConformanceChecker>,
) -> (RunReport, Option<ConformanceChecker>) {
    if sys.net.enabled && sys.net.placement == MacPlacement::PerCube {
        assert_eq!(
            programs.len(),
            1,
            "per-cube placement models a single host node"
        );
        let programs = programs.into_iter().next().expect("one node");
        NetSystem::new(sys, programs).run_with(max_cycles, opts, checker)
    } else {
        SystemSim::new_multi(sys, programs).run_with(max_cycles, opts, checker)
    }
}

/// Outcome of a conformance-checked run: the ordinary report plus the
/// invariant checker's violations and the oracle diff.
#[derive(Debug)]
pub struct CheckedRun {
    /// The run's report, exactly as an unchecked run would produce it.
    pub report: RunReport,
    /// Invariant violations the checker recorded (I1–I10).
    pub violations: Vec<Violation>,
    /// Functional divergences between the simulator and the timing-free
    /// oracle replay of the same operation lists.
    pub divergences: Vec<String>,
}

impl CheckedRun {
    /// True when the run was both invariant-clean and oracle-faithful.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.divergences.is_empty()
    }
}

/// Run explicit per-node, per-thread operation lists under `sys` with
/// the conformance checker attached, then diff the observed behaviour
/// against the functional oracle. `ops_per_node[n][t]` is node `n`'s
/// thread `t` program; per-cube placement requires a single node.
pub fn run_ops_checked(
    sys: &SystemConfig,
    ops_per_node: &[Vec<Vec<ThreadOp>>],
    max_cycles: u64,
    opts: RunOptions,
) -> CheckedRun {
    let oracle = OracleReplay::replay(ops_per_node);
    let programs = ops_per_node
        .iter()
        .map(|threads| {
            threads
                .iter()
                .map(|ops| Box::new(ReplayProgram::new(ops.clone())) as Box<dyn ThreadProgram>)
                .collect()
        })
        .collect();
    let checker = ConformanceChecker::new(sys);
    let (report, checker) = simulate(sys, programs, max_cycles, opts, Some(checker));
    let checker = checker.expect("attached above");
    let divergences = oracle.diff(&checker);
    CheckedRun {
        report,
        violations: checker.into_violations(),
        divergences,
    }
}

/// Run one workload on one configuration with the conformance checker
/// attached and the oracle diffed (the `mac-bench fuzz --smoke` path).
pub fn run_workload_checked(w: &dyn Workload, cfg: &ExperimentConfig) -> CheckedRun {
    let ops = vec![w.generate(&cfg.workload)];
    run_ops_checked(&cfg.system, &ops, cfg.max_cycles, RunOptions::default())
}

/// Run one workload with and without the MAC (same traces, same device).
/// Returns `(with_mac, without_mac)`.
pub fn run_pair(w: &dyn Workload, cfg: &ExperimentConfig) -> (RunReport, RunReport) {
    let with = run_workload(w, cfg, RunOptions::default());
    let mut base_cfg = cfg.clone();
    base_cfg.system.mac_disabled = true;
    let without = run_workload(w, &base_cfg, RunOptions::default());
    (with, without)
}

/// Run a closure over many labelled inputs in parallel (scoped threads),
/// returning the results in input order.
pub fn parallel_map<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let results: Vec<std::sync::Mutex<Option<R>>> =
        inputs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for (input, slot) in inputs.iter().zip(&results) {
            s.spawn(|| {
                *slot.lock().expect("result slot poisoned") = Some(f(input));
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("thread filled its slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_workloads::sg::ScatterGather;

    fn small_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(4);
        cfg.workload.scale = 1;
        cfg.max_cycles = 50_000_000;
        cfg
    }

    #[test]
    fn sg_runs_to_completion_with_and_without_mac() {
        let (with, without) = run_pair(&ScatterGather, &small_cfg());
        // All raw requests must complete in both modes.
        assert_eq!(with.soc.raw_requests, with.soc.completions);
        assert_eq!(without.soc.raw_requests, without.soc.completions);
        assert_eq!(
            with.soc.raw_requests, without.soc.raw_requests,
            "same trace"
        );
        // MAC reduces transactions.
        assert!(with.hmc.accesses() < without.hmc.accesses());
        assert!(with.coalescing_efficiency() > 0.05);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(vec![3u64, 1, 4, 1, 5], |&x| x * 2);
        assert_eq!(out, vec![6, 2, 8, 2, 10]);
    }
}
