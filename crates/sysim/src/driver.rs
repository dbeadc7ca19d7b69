//! The one run loop both system fabrics share.
//!
//! [`crate::SystemSim`] (host-side MAC, one or more nodes) and
//! [`crate::NetSystem`] (one MAC per cube) differ only in the hardware
//! they advance each cycle. That part sits behind the crate-private
//! [`Fabric`] trait. [`RunDriver`] owns everything else, once: the cycle
//! counter, the idle-span skip with its backoff, the observers, the
//! conformance checker and the adaptive controller's state. The two
//! simulators are the two instantiations `RunDriver<HostFabric>` and
//! `RunDriver<CubeFabric>`; dispatch is static, so a tick costs what a
//! hand-written loop would.

use std::collections::VecDeque;
use std::sync::Arc;

use hmc_model::HmcStats;
use mac_check::{ConformanceChecker, FinishProbe, StatsProbe};
use mac_coalescer::{
    AdaptDecision, AdaptSignals, AdaptiveController, Mac, MacEvent, MacStats, RequestRouter,
    RoutedTo,
};
use mac_metrics::{MetricsHub, Sampler};
use mac_telemetry::{Profiler, TraceEvent, Tracer, ROUTE_GLOBAL, ROUTE_LOCAL, ROUTE_STALLED};
use mac_types::{Cycle, FlitMap, HmcRequest, MemOpKind, RawRequest, ReqSize, SystemConfig};
use soc_sim::Node;

use crate::experiment::RunOptions;
use crate::progress::{ProgressProbe, PHASE_DONE, PHASE_RUNNING};
use crate::report::RunReport;

/// How often the attached conformance checker cross-checks aggregate
/// statistics (every this many cycles).
const CHECK_BATCH: Cycle = 1024;

/// Cap on the skip-attempt backoff: during dense phases at most one
/// wasted `next_event` scan per this many ticks, while an idle span is
/// entered at most this many ticks late (then skipped in full).
const MAX_SKIP_BACKOFF: Cycle = 64;

/// What differs between the two system fabrics. The driver calls these
/// and nothing else; everything the run loop does around them (skipping,
/// observers, checker batches, adapt boundaries) is shared.
pub trait Fabric {
    /// Profiler paths of the run-loop phases, in the order step,
    /// event scan, checker, sampler.
    const PHASES: [&'static str; 4];

    /// Hand tagged clones of `tracer` to every component that emits.
    fn attach_tracer(&mut self, tracer: &Tracer);

    /// Advance cycle `now`, letting each MAC accept up to `accepts` raw
    /// requests and feeding `checker` every observable step.
    fn tick(&mut self, now: Cycle, accepts: usize, checker: &mut Option<ConformanceChecker>);

    /// True when every queue, MAC and device is drained.
    fn is_idle(&self) -> bool;

    /// Earliest cycle `>= now` at which ticking could change any state,
    /// or `None` when every component is quiescent (ticking is a no-op
    /// until external input that will never come — the run is over or
    /// deadlocked; the driver then steps normally so both cases end
    /// exactly as in stepped mode). Every contribution is a conservative
    /// lower bound: an event reported too early costs a no-op tick, one
    /// reported too late would change behaviour and is never allowed.
    fn next_event(&self, now: Cycle) -> Option<Cycle>;

    /// Advance the per-node cycle counters to `now` across a skipped
    /// span (the only state a skipped no-op tick would have changed).
    fn sync_cycles(&mut self, now: Cycle);

    /// Completions delivered to threads so far.
    fn completions(&self) -> u64;

    /// The aggregate statistics the checker cross-checks, plus any
    /// per-component self-check failures.
    fn stats_probe(&self) -> (StatsProbe, Vec<String>);

    /// Record one metrics sample of every component.
    fn sample(&self, now: Cycle, s: &mut Sampler<'_>);

    /// Read the adaptive controller's inputs, summed over every MAC and
    /// device.
    fn adapt_sample(&self) -> AdaptSample;

    /// Apply an operating point to every MAC.
    fn retune(&mut self, d: &AdaptDecision);

    /// Merge the fabric's statistics into `report`.
    fn report(&mut self, report: &mut RunReport);
}

/// A full-system simulator: one [`Fabric`] plus the shared run loop.
pub struct RunDriver<F> {
    cfg: SystemConfig,
    fabric: F,
    now: Cycle,
    /// Force cycle-by-cycle stepping (the reference mode the event-driven
    /// fast path must match byte for byte; see DESIGN.md §14).
    stepped: bool,
    /// Current skip-attempt backoff (doubles per failed attempt, resets
    /// on success; see `run`).
    skip_backoff: Cycle,
    /// Cycles left before the next skip attempt.
    skip_cooldown: Cycle,
    tracer: Tracer,
    metrics: MetricsHub,
    profiler: Profiler,
    progress: Option<Arc<ProgressProbe>>,
    checker: Option<ConformanceChecker>,
    /// Adaptive-controller runtime state (`Some` iff `cfg.adapt.enabled`
    /// and the MAC is in the path); `None` keeps every hot-loop read on
    /// the static config, bit for bit.
    adapt: Option<AdaptState>,
}

impl<F: Fabric> RunDriver<F> {
    /// Wrap a freshly built fabric. `cfg` is the configuration the report
    /// carries (already normalized by the simulator's constructor).
    pub(crate) fn with_fabric(cfg: SystemConfig, mut fabric: F) -> Self {
        let adapt = AdaptState::try_new(&cfg);
        if let Some(a) = &adapt {
            // The controller clamps the static operating point into the
            // configured bounds; make the MACs start from that same
            // point so controller belief and hardware state agree.
            fabric.retune(&a.ctl.current());
        }
        RunDriver {
            cfg,
            fabric,
            now: 0,
            stepped: false,
            skip_backoff: 0,
            skip_cooldown: 0,
            tracer: Tracer::disabled(),
            metrics: MetricsHub::disabled(),
            profiler: Profiler::disabled(),
            progress: None,
            checker: None,
            adapt,
        }
    }

    /// Select the run-loop mode: `true` ticks every cycle unconditionally
    /// (the reference behavior), `false` (the default) skips provably
    /// idle spans between component events. Both modes produce
    /// byte-identical [`RunReport`]s, traces, metrics, and checker
    /// observations; stepping exists for the golden equivalence tests.
    pub fn set_stepped(&mut self, stepped: bool) {
        self.stepped = stepped;
    }

    /// Attach a tracer and propagate tagged clones to every MAC and
    /// device. Tracing is observational: it never changes simulated
    /// behavior.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.fabric.attach_tracer(&tracer);
        self.tracer = tracer;
    }

    /// Attach a metrics hub (disabled by default). Like tracing,
    /// sampling is observational: it reads component state once per
    /// interval and never changes simulated behavior.
    pub fn set_metrics(&mut self, metrics: MetricsHub) {
        self.metrics = metrics;
    }

    /// Attach a host-side wall-clock profiler (disabled by default).
    /// The run loop accumulates per-phase time (component-step,
    /// idle-span scan, checker, sampler) locally and folds it into the
    /// profiler once at run end, so enabled profiling adds only clock
    /// reads to the hot loop and disabled profiling is one branch.
    /// Profiling is observational: it never changes simulated behavior,
    /// reports, or fingerprints.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Attach a live progress probe (see [`ProgressProbe`]): the run
    /// loop stores the current cycle and completion count into it every
    /// tick with relaxed atomics, for streaming observers.
    pub fn set_progress(&mut self, progress: Arc<ProgressProbe>) {
        self.progress = Some(progress);
    }

    /// Attach a conformance checker. Like tracing and metrics, checking
    /// is observational: the run loop feeds it every accepted issue,
    /// dispatch, response, completion, and fence retirement, plus a
    /// statistics snapshot every 1024 cycles, and never reads it back.
    pub fn set_checker(&mut self, checker: ConformanceChecker) {
        self.checker = Some(checker);
    }

    /// Detach the conformance checker (after `run`, to inspect its
    /// verdict). `run` already called `finish` on it.
    pub fn take_checker(&mut self) -> Option<ConformanceChecker> {
        self.checker.take()
    }

    /// Attach `opts` and `checker`, run to `max_cycles`, and hand the
    /// checker back with the report.
    pub(crate) fn run_with(
        mut self,
        max_cycles: Cycle,
        opts: RunOptions,
        checker: Option<ConformanceChecker>,
    ) -> (RunReport, Option<ConformanceChecker>) {
        let obs = opts.observers;
        if let Some(t) = obs.tracer {
            self.set_tracer(t);
        }
        self.set_metrics(obs.metrics);
        self.set_profiler(obs.profiler);
        if let Some(p) = obs.progress {
            self.set_progress(p);
        }
        self.set_stepped(opts.stepped);
        if let Some(c) = checker {
            self.set_checker(c);
        }
        let report = self.run(max_cycles);
        (report, self.take_checker())
    }

    /// Feed the checker one statistics cross-check.
    fn check_stats(&mut self) {
        let Some(checker) = self.checker.as_mut() else {
            return;
        };
        let (probe, errs) = self.fabric.stats_probe();
        for e in &errs {
            checker.on_component_error(self.now, e);
        }
        checker.on_cycle_batch(self.now, &probe);
    }

    /// Take one metrics sample of the fabric and the controller.
    fn take_metrics_sample(&self) {
        let now = self.now;
        self.metrics.sample(now, |s| {
            self.fabric.sample(now, s);
            if let Some(a) = &self.adapt {
                s.scoped("adapt", |s| {
                    let d = a.ctl.current();
                    s.gauge("pop_interval", d.pop_interval);
                    s.gauge("accepts", a.accepts as u64);
                    s.gauge("bypass_enabled", d.bypass_enabled as u64);
                    s.gauge("retunes", a.ctl.retunes());
                });
            }
        });
    }

    /// Evaluate the adaptive controller at a decision boundary and apply
    /// any retune to every MAC uniformly. Guarded so a boundary reached
    /// by both the tick loop and the skip loop is evaluated exactly once.
    fn adapt_decide(&mut self) {
        let now = self.now;
        let Some(a) = self.adapt.as_mut().filter(|a| a.last_decision != Some(now)) else {
            return;
        };
        a.last_decision = Some(now);
        let s = a.signals(&self.fabric.adapt_sample());
        if let Some(d) = a.ctl.observe(&s) {
            a.accepts = d.accepts_per_cycle;
            self.fabric.retune(&d);
            self.tracer.emit(now, || TraceEvent::AdaptDecision {
                pop_interval: d.pop_interval,
                accepts: d.accepts_per_cycle.min(u16::MAX as usize) as u16,
                bypass: d.bypass_enabled,
            });
        }
    }

    /// Advance one cycle. Returns `true` while work remains.
    fn tick(&mut self) -> bool {
        // With adaptation off this reads the static config value, so the
        // disabled path stays bit-identical.
        let accepts = self
            .adapt
            .as_ref()
            .map_or(self.cfg.mac.accepts_per_cycle.max(1), |a| a.accepts);
        self.fabric.tick(self.now, accepts, &mut self.checker);
        self.now += 1;
        !self.fabric.is_idle()
    }

    /// Advance `now` to the next component event (or `max_cycles`),
    /// visiting every metrics-interval, checker-batch and adapt-decision
    /// boundary in between so observers see exactly the cycles stepped
    /// mode shows them. Only provably idle cycles are skipped:
    /// `next_event` guarantees a tick at each skipped cycle would have
    /// changed nothing.
    fn skip_idle_span(&mut self, max_cycles: Cycle) {
        let Some(next) = self.fabric.next_event(self.now) else {
            return;
        };
        let target = next.min(max_cycles);
        let adapt_iv = self.adapt.as_ref().map(|a| a.interval);
        while self.now < target {
            let mut stop = target;
            let iv = self.metrics.interval();
            if let Some(next) = self.now.checked_div(iv) {
                stop = stop.min((next + 1) * iv);
            }
            if self.checker.is_some() {
                stop = stop.min((self.now / CHECK_BATCH + 1) * CHECK_BATCH);
            }
            if let Some(aiv) = adapt_iv {
                // Decision boundaries are visited exactly like metrics
                // and checker boundaries, so both run-loop modes feed
                // the controller identical observation sequences. A
                // mid-skip retune cannot invalidate `target`: `next_pop`
                // is absolute, the accept width only matters when a
                // queue already forces `next == now`, and the bypass
                // switch only changes behavior at pop time.
                stop = stop.min((self.now / aiv + 1) * aiv);
            }
            self.now = stop;
            // The skipped ticks were no-ops except for the per-node
            // cycle counter, which a stepped run would have advanced to
            // `stop`; observers below (and the final report) read it.
            self.fabric.sync_cycles(stop);
            if self.metrics.should_sample(self.now) {
                self.take_metrics_sample();
            }
            if self.checker.is_some() && self.now.is_multiple_of(CHECK_BATCH) {
                self.check_stats();
            }
            if adapt_iv.is_some_and(|aiv| self.now.is_multiple_of(aiv)) {
                self.adapt_decide();
            }
        }
    }

    /// Run to completion (or `max_cycles`) and produce the report.
    pub fn run(&mut self, max_cycles: Cycle) -> RunReport {
        let prof_on = self.profiler.is_enabled();
        // Per-phase wall-clock accumulators (component-step, idle-span
        // event scan, checker, sampler), folded into the profiler once
        // at run end so the hot loop never locks or allocates for it.
        let (mut step_ns, mut steps) = (0u64, 0u64);
        let (mut scan_ns, mut scans) = (0u64, 0u64);
        let (mut check_ns, mut checks) = (0u64, 0u64);
        let (mut sample_ns, mut samples) = (0u64, 0u64);
        macro_rules! timed {
            ($ns:ident, $n:ident, $e:expr) => {
                if prof_on {
                    let t0 = std::time::Instant::now();
                    let r = $e;
                    $ns += t0.elapsed().as_nanos() as u64;
                    $n += 1;
                    r
                } else {
                    $e
                }
            };
        }
        if let Some(p) = &self.progress {
            p.set_phase(PHASE_RUNNING);
        }
        while self.now < max_cycles {
            let more = timed!(step_ns, steps, self.tick());
            if let Some(p) = &self.progress {
                p.update(self.now, self.fabric.completions());
            }
            if self.metrics.should_sample(self.now) {
                timed!(sample_ns, samples, self.take_metrics_sample());
            }
            if self.checker.is_some() && self.now.is_multiple_of(CHECK_BATCH) {
                timed!(check_ns, checks, self.check_stats());
            }
            if self
                .adapt
                .as_ref()
                .is_some_and(|a| self.now.is_multiple_of(a.interval))
            {
                self.adapt_decide();
            }
            if !more {
                break;
            }
            // Attempting a skip costs a full next_event() scan, which is
            // pure overhead on traffic-dense phases where no cycle can be
            // skipped. Back off exponentially after each failed attempt
            // (skipping fewer cycles is always byte-safe) and retry
            // eagerly again after any success.
            if !self.stepped {
                if self.skip_cooldown > 0 {
                    self.skip_cooldown -= 1;
                } else {
                    let before = self.now;
                    timed!(scan_ns, scans, self.skip_idle_span(max_cycles));
                    if self.now == before {
                        self.skip_backoff = (self.skip_backoff.max(1) * 2).min(MAX_SKIP_BACKOFF);
                        self.skip_cooldown = self.skip_backoff;
                    } else {
                        self.skip_backoff = 0;
                    }
                }
            }
        }
        if prof_on {
            let [step, scan, check, sample] = F::PHASES;
            self.profiler.accum(step, step_ns, steps);
            self.profiler.accum(scan, scan_ns, scans);
            self.profiler.accum(check, check_ns, checks);
            self.profiler.accum(sample, sample_ns, samples);
        }
        if let Some(p) = &self.progress {
            p.update(self.now, self.fabric.completions());
            p.set_phase(PHASE_DONE);
        }
        if self.metrics.is_enabled() {
            // Tail window: capture the final state even when the run did
            // not end on an interval boundary (deduped when it did).
            self.take_metrics_sample();
        }
        self.tracer.flush();
        let report = self.report();
        if let Some(checker) = self.checker.as_mut() {
            let (stats, errs) = self.fabric.stats_probe();
            let probe = FinishProbe {
                idle: self.fabric.is_idle(),
                soc_raw_requests: report.soc.raw_requests,
                soc_completions: report.soc.completions,
                stats,
            };
            for e in &errs {
                checker.on_component_error(self.now, e);
            }
            checker.finish(&probe, self.now);
        }
        report
    }

    /// Snapshot the merged statistics.
    pub fn report(&mut self) -> RunReport {
        let mut report = RunReport {
            cycles: self.now,
            config: self.cfg.clone(),
            trace: self.tracer.summary(),
            ..RunReport::default()
        };
        self.fabric.report(&mut report);
        report
    }

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }
}

/// Fold a component's next-event time into the running minimum.
pub(crate) fn merge_next(next: Option<Cycle>, t: Option<Cycle>) -> Option<Cycle> {
    match (next, t) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Route one raw request a core issues (tracing the queue it lands in
/// and reporting it to the checker). Returns whether the router took it.
#[inline]
pub(crate) fn route_issue(
    router: &mut RequestRouter,
    tracer: &Tracer,
    checker: &mut Option<ConformanceChecker>,
    raw: RawRequest,
    now: Cycle,
) -> bool {
    let (id, addr) = (raw.id.0, raw.addr.raw());
    let routed = router.route(raw);
    tracer.emit(now, || TraceEvent::RawRoute {
        id,
        addr,
        queue: match routed {
            RoutedTo::Local => ROUTE_LOCAL,
            RoutedTo::Global => ROUTE_GLOBAL,
            RoutedTo::Stalled => ROUTE_STALLED,
        },
    });
    let accepted = routed != RoutedTo::Stalled;
    if accepted {
        if let Some(c) = checker.as_mut() {
            c.on_raw_issued(&raw, now);
        }
    }
    accepted
}

/// Advance one MAC a cycle: its dispatches join `dispatch_q`, its
/// retired fences complete on `node`.
#[inline]
pub(crate) fn tick_mac(
    mac: &mut Mac,
    now: Cycle,
    checker: &mut Option<ConformanceChecker>,
    dispatch_q: &mut VecDeque<HmcRequest>,
    node: &mut Node,
) {
    for ev in mac.tick(now) {
        match ev {
            MacEvent::Dispatch(req) => dispatch(dispatch_q, checker, req, now),
            MacEvent::FenceRetired(raw) => retire_fence(node, checker, &raw, now),
        }
    }
}

/// Queue a transaction for the device (reporting it to the checker).
#[inline]
pub(crate) fn dispatch(
    dispatch_q: &mut VecDeque<HmcRequest>,
    checker: &mut Option<ConformanceChecker>,
    req: HmcRequest,
    now: Cycle,
) {
    if let Some(c) = checker.as_mut() {
        c.on_dispatch(&req, now);
    }
    dispatch_q.push_back(req);
}

/// Retire a fence on its thread (reporting it to the checker).
#[inline]
pub(crate) fn retire_fence(
    node: &mut Node,
    checker: &mut Option<ConformanceChecker>,
    raw: &RawRequest,
    now: Cycle,
) {
    if let Some(c) = checker.as_mut() {
        c.on_fence_retired(raw, now);
    }
    node.complete_fence(raw);
}

/// Wrap a raw request as a single-FLIT device transaction (the baseline
/// "without MAC" path, and also the remote-atomic path).
pub(crate) fn raw_to_txn(raw: &RawRequest, now: Cycle) -> HmcRequest {
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

/// Add one MAC's counters (and self-check failure) to a checker probe.
pub(crate) fn probe_mac(p: &mut StatsProbe, errs: &mut Vec<String>, m: &MacStats) {
    p.mac_raw_memory += m.raw_memory_requests();
    p.mac_raw_fences += m.raw_fences;
    p.mac_fences_retired += m.fences_retired;
    p.mac_emitted_total += m.emitted_total();
    p.mac_emitted_split += m.emitted_bypass + m.emitted_built + m.emitted_atomic;
    p.mac_emitted_bypass_built += m.emitted_bypass + m.emitted_built;
    p.mac_pop_groups += m.targets_per_entry.events;
    p.mac_targets_sum += m.targets_per_entry.sum;
    if let Some(e) = m.consistency_error() {
        errs.push(e);
    }
}

/// Add one device's counters (and self-check failure) to a checker probe.
pub(crate) fn probe_device(p: &mut StatsProbe, errs: &mut Vec<String>, h: &HmcStats) {
    p.device_accesses += h.accesses();
    p.device_raw_satisfied += h.raw_satisfied;
    p.device_data_bytes += h.data_bytes;
    p.device_useful_bytes += h.useful_bytes;
    if let Some(e) = h.consistency_error() {
        errs.push(e);
    }
}

/// Cumulative counters the adaptive controller's window signals are
/// derived from (summed over every MAC/device in the system).
#[derive(Debug, Default, Clone, Copy)]
struct AdaptWindow {
    raw_total: u64,
    emitted_total: u64,
    emitted_bypass: u64,
    emitted_16b: u64,
    conflicts: u64,
    accesses: u64,
}

/// One decision boundary's reading of a fabric: instantaneous ARQ
/// occupancy and device backlog plus the cumulative window counters.
#[derive(Debug, Default)]
pub struct AdaptSample {
    arq_len: u64,
    arq_cap: u64,
    dev_pending: u64,
    dev_vaults: u64,
    counters: AdaptWindow,
}

impl AdaptSample {
    /// Add one MAC's occupancy and counters.
    pub(crate) fn add_mac(&mut self, mac: &Mac) {
        self.arq_len += mac.arq_len() as u64;
        self.arq_cap += mac.arq_capacity() as u64;
        let m = mac.stats();
        self.counters.raw_total += m.raw_memory_requests();
        self.counters.emitted_total += m.emitted_total();
        self.counters.emitted_bypass += m.emitted_bypass;
        self.counters.emitted_16b += m.emitted_by_size[0];
    }

    /// Add one device's backlog (`pending` over `vaults`) and counters.
    pub(crate) fn add_device(&mut self, pending: usize, vaults: usize, h: &HmcStats) {
        self.dev_pending += pending as u64;
        self.dev_vaults += vaults as u64;
        self.counters.conflicts += h.bank_conflicts;
        self.counters.accesses += h.accesses();
    }
}

/// Runtime state of the adaptive controller. Lives *outside* the
/// driver's `cfg`: the config cloned into the report must stay the one
/// the run was requested with (cache reattachment depends on it), so the
/// effective operating point is tracked here and applied to the MACs via
/// [`Fabric::retune`].
struct AdaptState {
    ctl: AdaptiveController,
    /// Decision cadence in cycles (sanitized, ≥ 1). Decision points are
    /// also event-skip clamp boundaries, so both run-loop modes visit
    /// exactly the same boundaries.
    interval: Cycle,
    /// Effective accept width; the tick loop reads this instead of
    /// `cfg.mac.accepts_per_cycle` while adaptation is enabled.
    accepts: usize,
    /// Counter snapshot at the previous decision boundary.
    prev: AdaptWindow,
    /// Boundary a decision was last evaluated at, guarding against a
    /// double evaluation when the tick loop and the skip loop both land
    /// on the same cycle.
    last_decision: Option<Cycle>,
}

impl AdaptState {
    /// Build the runtime state when `cfg.adapt.enabled`, starting the
    /// controller from the static MacConfig operating point.
    fn try_new(cfg: &SystemConfig) -> Option<AdaptState> {
        if !cfg.adapt.enabled || cfg.mac_disabled {
            return None;
        }
        let ctl = AdaptiveController::new(
            &cfg.adapt,
            AdaptDecision {
                pop_interval: cfg.mac.pop_interval,
                accepts_per_cycle: cfg.mac.accepts_per_cycle.max(1),
                bypass_enabled: cfg.mac.bypass_enabled,
            },
        );
        Some(AdaptState {
            interval: ctl.config().interval,
            accepts: ctl.current().accepts_per_cycle,
            ctl,
            prev: AdaptWindow::default(),
            last_decision: None,
        })
    }

    /// Derive one observation's signals from the instantaneous ARQ
    /// occupancy and device backlog and the counter deltas since the
    /// previous boundary, then roll the window forward.
    fn signals(&mut self, s: &AdaptSample) -> AdaptSignals {
        fn milli(num: u64, den: u64) -> u32 {
            (num * 1000).checked_div(den).unwrap_or(0).min(1000) as u32
        }
        let (p, cur) = (self.prev, s.counters);
        let raw = cur.raw_total.saturating_sub(p.raw_total);
        let emitted = cur.emitted_total.saturating_sub(p.emitted_total);
        let signals = AdaptSignals {
            arq_occupancy_milli: milli(s.arq_len, s.arq_cap),
            device_backlog_milli: milli(s.dev_pending, s.dev_vaults),
            merge_yield_milli: milli(raw.saturating_sub(emitted), raw),
            bypass_share_milli: milli(cur.emitted_bypass.saturating_sub(p.emitted_bypass), emitted),
            small_packet_share_milli: milli(cur.emitted_16b.saturating_sub(p.emitted_16b), emitted),
            conflict_rate_milli: milli(
                cur.conflicts.saturating_sub(p.conflicts),
                cur.accesses.saturating_sub(p.accesses),
            ),
        };
        self.prev = cur;
        signals
    }
}
