//! The three benchmark workloads, one closed-loop pass over a workload,
//! and the output checks.
//!
//! A pass runs every simulation of the workload one after another in
//! this thread: generate (or capture) the kernel's traces once, then for
//! each system variant build a fresh simulator over a copy of them and
//! run it to completion. Every simulation starts with empty HMC and
//! vault state; the modelled node has scratchpads and no caches.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mac_sim::baseline::key_metrics;
use mac_sim::{NetSystem, RunObservers, RunReport, SystemSim};
use mac_telemetry::Profiler;
use mac_types::{Fnv128, MacPlacement, NetTopology, SystemConfig};
use mac_workloads::{Workload, WorkloadParams};
use soc_sim::{ReplayProgram, ThreadOp, ThreadProgram};

use crate::spans::Recorder;

/// Cycle cap of every simulation (the library's `ExperimentConfig`
/// default); a run that reaches it fails its check. `hpcg` and `cg` on
/// `latency_bound` need about 66M cycles.
pub const MAX_CYCLES: u64 = 200_000_000;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// The paper's twelve benchmarks at 8 threads, with and without the MAC.
    PaperSuite,
    /// Five kernels at 1 thread with one outstanding access, MAC on.
    LatencyBound,
    /// The four RV64 guest kernels at 4 threads on a 2-cube daisy chain,
    /// per-cube and host-only MAC placement.
    GuestFabric,
}

impl Name {
    /// Every workload, in documentation order.
    pub const ALL: [Name; 3] = [Name::PaperSuite, Name::LatencyBound, Name::GuestFabric];

    /// The command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::PaperSuite => "paper_suite",
            Name::LatencyBound => "latency_bound",
            Name::GuestFabric => "guest_fabric",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// One kernel whose traces feed one simulation per system variant.
pub struct Group {
    /// The trace source.
    pub kernel: Box<dyn Workload>,
    /// Generation parameters (the seed comes from the command line).
    pub params: WorkloadParams,
    /// True for RV64 guest kernels (trace capture through the interpreter).
    pub guest: bool,
    /// `(label, system)` per simulation; all replay the same traces.
    pub variants: Vec<(&'static str, SystemConfig)>,
}

/// The simulations of workload `name` with trace seed `seed`.
pub fn groups(name: Name, seed: u64) -> Vec<Group> {
    let params = |threads| WorkloadParams {
        threads,
        scale: 1,
        seed,
    };
    match name {
        Name::PaperSuite => {
            let with = SystemConfig::paper(8);
            let without = SystemConfig {
                mac_disabled: true,
                ..with.clone()
            };
            mac_workloads::all_workloads()
                .into_iter()
                .map(|kernel| Group {
                    kernel,
                    params: params(8),
                    guest: false,
                    variants: vec![("mac", with.clone()), ("nomac", without.clone())],
                })
                .collect()
        }
        Name::LatencyBound => {
            let mut sys = SystemConfig::paper(1);
            sys.soc.max_outstanding_per_thread = 1;
            ["stream", "gups", "sg", "hpcg", "cg"]
                .into_iter()
                .map(|k| Group {
                    kernel: mac_workloads::by_name(k).expect("kernel is registered"),
                    params: params(1),
                    guest: false,
                    variants: vec![("mac", sys.clone())],
                })
                .collect()
        }
        Name::GuestFabric => {
            let chain = |p| SystemConfig::paper(4).with_net(2, NetTopology::DaisyChain, p);
            mac_workloads::guest::guest_workloads()
                .into_iter()
                .map(|kernel| Group {
                    kernel,
                    params: params(4),
                    guest: true,
                    variants: vec![
                        ("percube", chain(MacPlacement::PerCube)),
                        ("hostonly", chain(MacPlacement::HostOnly)),
                    ],
                })
                .collect()
        }
    }
}

/// Generate a kernel's traces; `None` when generation panics (a guest
/// kernel whose thread did not exit cleanly), which fails its simulations.
pub fn generate(g: &Group) -> Option<Vec<Vec<ThreadOp>>> {
    catch_unwind(AssertUnwindSafe(|| g.kernel.generate(&g.params))).ok()
}

/// Operations in a generated trace (every kind except `Done`).
pub fn op_count(traces: &[Vec<ThreadOp>]) -> u64 {
    traces
        .iter()
        .flatten()
        .filter(|op| !matches!(op, ThreadOp::Done))
        .count() as u64
}

/// A constructed simulator: per-cube placement runs the `NetSystem`
/// loop, everything else `SystemSim`. Only one exists at a time, so the
/// variants' size difference does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Sim {
    /// Single device or host-side coalescing.
    Host(SystemSim),
    /// One MAC per cube.
    PerCube(NetSystem),
}

impl Sim {
    /// Build a simulator replaying a copy of `traces`.
    pub fn new(cfg: &SystemConfig, traces: &[Vec<ThreadOp>]) -> Sim {
        let programs: Vec<Box<dyn ThreadProgram>> = traces
            .iter()
            .map(|ops| Box::new(ReplayProgram::new(ops.clone())) as Box<dyn ThreadProgram>)
            .collect();
        if cfg.net.enabled && cfg.net.placement == MacPlacement::PerCube {
            Sim::PerCube(NetSystem::new(cfg, programs))
        } else {
            Sim::Host(SystemSim::new(cfg, programs))
        }
    }

    /// Attach an observer bundle.
    pub fn observe(&mut self, obs: RunObservers) {
        macro_rules! attach {
            ($s:expr) => {{
                if let Some(t) = obs.tracer {
                    $s.set_tracer(t);
                }
                $s.set_metrics(obs.metrics);
                $s.set_profiler(obs.profiler);
                if let Some(p) = obs.progress {
                    $s.set_progress(p);
                }
            }};
        }
        match self {
            Sim::Host(s) => attach!(s),
            Sim::PerCube(s) => attach!(s),
        }
    }

    /// Run to completion or the cycle cap.
    pub fn run(&mut self) -> RunReport {
        match self {
            Sim::Host(s) => s.run(MAX_CYCLES),
            Sim::PerCube(s) => s.run(MAX_CYCLES),
        }
    }
}

/// One simulation of a pass.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Kernel name.
    pub kernel: &'static str,
    /// Variant label.
    pub variant: &'static str,
    /// Whether the kernel is an RV64 guest.
    pub guest: bool,
    /// Trace generation seconds (on the group's first simulation only).
    pub generate_s: f64,
    /// Generated operations (on the group's first simulation only).
    pub ops: u64,
    /// Simulator construction seconds.
    pub build_s: f64,
    /// `run` seconds.
    pub run_s: f64,
    /// The report; `None` when trace generation failed.
    pub report: Option<RunReport>,
}

impl SimOutcome {
    /// Host seconds this simulation cost, generation share included.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.run_s
    }
}

/// One pass over every simulation of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Seconds of trace generation plus simulator construction.
    pub setup_s: f64,
    /// The simulations in run order.
    pub sims: Vec<SimOutcome>,
}

/// Run one pass. `rec` records spans when the run is traced; `profiler`
/// is attached to every simulator (disabled for untraced passes).
pub fn run_pass(groups: &[Group], rec: &mut Recorder, profiler: &Profiler) -> Pass {
    let mut sims = Vec::new();
    let ((), wall_s) = rec.span("bench.pass", 0, |rec| {
        for g in groups {
            let mut traces = None;
            for (vi, (variant, cfg)) in g.variants.iter().enumerate() {
                let id = rec.new_sim();
                let (outcome, _) = rec.span("bench.sim", id, |rec| {
                    let mut o = SimOutcome {
                        kernel: g.kernel.name(),
                        variant,
                        guest: g.guest,
                        generate_s: 0.0,
                        ops: 0,
                        build_s: 0.0,
                        run_s: 0.0,
                        report: None,
                    };
                    if vi == 0 {
                        let layer = if g.guest {
                            "guest.capture"
                        } else {
                            "workloads.generate"
                        };
                        (traces, o.generate_s) = rec.span(layer, id, |_| generate(g));
                        o.ops = traces.as_deref().map_or(0, op_count);
                    }
                    let Some(t) = traces.as_deref() else {
                        return o;
                    };
                    let (mut sim, build_s) = rec.span("sysim.build", id, |_| Sim::new(cfg, t));
                    sim.observe(RunObservers {
                        profiler: profiler.clone(),
                        ..RunObservers::default()
                    });
                    let (report, run_s) = rec.span("sysim.run", id, |_| sim.run());
                    (o.build_s, o.run_s, o.report) = (build_s, run_s, Some(report));
                    o
                });
                sims.push(outcome);
            }
        }
    });
    let setup_s = sims.iter().map(|s| s.generate_s + s.build_s).sum();
    Pass {
        wall_s,
        setup_s,
        sims,
    }
}

/// Set-up alone: generate every kernel's traces and construct every
/// simulator, without running. Returns its seconds (dropping the
/// simulators and traces is not counted).
pub fn setup_only(groups: &[Group]) -> f64 {
    let mut total = 0.0;
    for g in groups {
        let t0 = Instant::now();
        let traces = generate(g);
        let sims: Vec<Sim> = traces
            .iter()
            .flat_map(|t| g.variants.iter().map(|(_, cfg)| Sim::new(cfg, t)))
            .collect();
        total += t0.elapsed().as_secs_f64();
        drop((sims, traces));
    }
    total
}

/// Digest of `mac_sim::baseline::key_metrics`: equal digests mean equal
/// cycles, requests, completions, transactions, conflicts, link bytes,
/// latency sum and remote accesses.
pub fn digest(r: &RunReport) -> u128 {
    let mut h = Fnv128::new();
    for (name, m) in key_metrics(r) {
        h.write_str(&name);
        h.write_bytes(&m.value.to_le_bytes());
    }
    h.finish()
}

/// Output checks across every pass of one benchmark process.
#[derive(Debug, Default)]
pub struct Checker {
    /// Simulations checked.
    pub attempted: u64,
    /// Simulations that failed at least one check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
    /// First digest seen per `kernel/variant`.
    digests: BTreeMap<String, u128>,
}

impl Checker {
    /// Check every simulation of `pass`:
    /// * it completes every raw request before the cycle cap;
    /// * it issues the same raw requests as the first simulation of its
    ///   group (the twins replay one trace);
    /// * its key-metrics digest equals the one of its first repetition.
    pub fn check(&mut self, groups: &[Group], pass: &Pass) {
        let mut sims = pass.sims.iter();
        for g in groups {
            let mut first_raw = None;
            for _ in &g.variants {
                let s = sims.next().expect("one outcome per variant");
                self.attempted += 1;
                let label = format!("{}/{}", s.kernel, s.variant);
                let problem = match &s.report {
                    None => Some("trace generation failed".to_string()),
                    Some(r) => {
                        self.problem(&label, r, *first_raw.get_or_insert(r.soc.raw_requests))
                    }
                };
                if let Some(p) = problem {
                    self.failed += 1;
                    self.notes.push(format!("{label}: {p}"));
                }
            }
        }
    }

    fn problem(&mut self, label: &str, r: &RunReport, twin_raw: u64) -> Option<String> {
        if r.soc.completions != r.soc.raw_requests || r.cycles >= MAX_CYCLES {
            return Some(format!(
                "{} of {} raw requests completed in {} cycles (cap {MAX_CYCLES})",
                r.soc.completions, r.soc.raw_requests, r.cycles
            ));
        }
        if r.soc.raw_requests != twin_raw {
            return Some(format!(
                "{} raw requests, its twin issued {twin_raw}",
                r.soc.raw_requests
            ));
        }
        let d = digest(r);
        let first = *self.digests.entry(label.to_string()).or_insert(d);
        (first != d).then(|| format!("key metrics digest {d:032x} differs from {first:032x}"))
    }
}
