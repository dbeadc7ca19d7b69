//! Host-side wall-clock span profiler (`mac-obs`).
//!
//! The tracer and metrics layers observe the *simulated machine* in the
//! cycle domain; this module observes the *simulator itself* in the
//! wall-clock domain: where host time goes inside SimPool scheduling,
//! the event-driven run loops, the result cache, and the mac-serve job
//! lifecycle.
//!
//! # Design
//!
//! [`Profiler`] follows the same zero-overhead-when-disabled pattern as
//! `Tracer` and `mac_metrics::MetricsHub`: a disabled profiler is a
//! `None` and every operation short-circuits on one branch, so profiling
//! never perturbs simulated behavior (it is purely observational — no
//! profiler state enters any fingerprint) and costs nothing when off.
//!
//! Two recording granularities:
//!
//! * **Guard spans** ([`Profiler::span`]) for coarse sites (a pool
//!   batch, one simulation, a cache store): each records a wall-clock
//!   [`SpanRecord`] (capped; overflow is counted, not stored) *and*
//!   bumps the per-path aggregate.
//! * **Accumulated phases** ([`Profiler::accum`]) for hot loops: the
//!   run loop keeps local nanosecond/count accumulators per phase
//!   (event-scan, component-step, checker, sampler) and flushes them
//!   once at run end — no per-tick allocation or locking.
//!
//! Span paths are `/`-separated (`pool/execute`, `system/run/tick`);
//! nesting is by path convention, mirroring metrics series names.
//!
//! Exports come in two flavors with different determinism contracts:
//! [`Profiler::export_text`] contains only *structure* (paths, counts,
//! counter values — all deterministic across runs and `--jobs`
//! settings), while [`Profiler::export_json`] adds wall-clock
//! nanoseconds for human consumption and the merged Perfetto timeline.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mac_types::json;

/// Hard cap on stored span records; overflow increments a drop counter
/// instead of growing without bound.
const MAX_SPAN_RECORDS: usize = 65_536;

/// Stable small integers naming host threads in exports. Assigned once
/// per OS thread in first-use order (display identity only — never part
/// of the deterministic text export).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static HOST_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One completed wall-clock span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `/`-separated span path (`pool/execute`, `serve/job/run`).
    pub path: String,
    /// Host thread that recorded the span (small stable integer).
    pub tid: u64,
    /// Start offset in nanoseconds since the profiler was created.
    pub start_ns: u64,
    /// Span duration in nanoseconds (at least 1).
    pub dur_ns: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct PhaseAgg {
    count: u64,
    total_ns: u64,
}

#[derive(Debug, Default)]
struct ProfState {
    spans: Vec<SpanRecord>,
    dropped: u64,
    phases: BTreeMap<String, PhaseAgg>,
    counters: BTreeMap<String, u64>,
}

#[derive(Debug)]
struct ProfInner {
    epoch: Instant,
    state: Mutex<ProfState>,
}

/// A point-in-time copy of everything the profiler recorded, used by
/// the exports and the merged Perfetto timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSnapshot {
    /// Completed spans in completion order (capped; see `dropped`).
    pub spans: Vec<SpanRecord>,
    /// Spans discarded after the record cap was reached.
    pub dropped: u64,
    /// Per-path aggregates `(path, count, total_ns)` in path order.
    /// Includes both guard spans and accumulated hot-loop phases.
    pub phases: Vec<(String, u64, u64)>,
    /// Named counters `(name, value)` in name order.
    pub counters: Vec<(String, u64)>,
}

/// Handle to the host-side span profiler. Cheap to clone (an `Arc`
/// bump); a disabled profiler is free.
///
/// `PartialEq` always returns `true`: profiling is observational, so two
/// otherwise-equal components must compare equal regardless of
/// instrumentation (the same contract as `MetricsHub` and `Tracer`).
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfInner>>,
}

impl PartialEq for Profiler {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Profiler {
    /// A disabled profiler: every operation is a no-op behind one branch.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// An enabled profiler. The wall clock is anchored at creation: all
    /// span offsets are nanoseconds since this call.
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Arc::new(ProfInner {
                epoch: Instant::now(),
                state: Mutex::new(ProfState::default()),
            })),
        }
    }

    /// Whether profiling is active. This is the hot-path check: one
    /// branch when disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a wall-clock span; the span is recorded when the returned
    /// guard drops. Use for coarse sites only — hot loops should batch
    /// through [`Profiler::accum`] instead.
    #[inline]
    pub fn span(&self, path: &str) -> SpanGuard {
        SpanGuard {
            live: self.inner.as_ref().map(|inner| LiveSpan {
                inner: Arc::clone(inner),
                path: path.to_string(),
                start: Instant::now(),
            }),
        }
    }

    /// Fold a batch of hot-loop phase time into the per-path aggregate:
    /// `count` occurrences totalling `nanos` wall-clock nanoseconds.
    /// No span records are stored, so this is safe to call once per run
    /// with millions of accumulated iterations.
    pub fn accum(&self, path: &str, nanos: u64, count: u64) {
        if let Some(inner) = &self.inner {
            if count == 0 && nanos == 0 {
                return;
            }
            let mut st = inner.state.lock().unwrap();
            let agg = st.phases.entry(path.to_string()).or_default();
            agg.count += count;
            agg.total_ns += nanos;
        }
    }

    /// Add `delta` to a named counter (cache hits, jobs stored, …).
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().unwrap();
            *st.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Nanoseconds elapsed since the profiler was created (0 when
    /// disabled). This is the wall-clock domain origin of every span.
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => saturating_ns(inner.epoch.elapsed().as_nanos()),
            None => 0,
        }
    }

    /// Snapshot everything recorded so far. `None` when disabled.
    pub fn snapshot(&self) -> Option<ProfSnapshot> {
        let inner = self.inner.as_ref()?;
        let st = inner.state.lock().unwrap();
        Some(ProfSnapshot {
            spans: st.spans.clone(),
            dropped: st.dropped,
            phases: st
                .phases
                .iter()
                .map(|(p, a)| (p.clone(), a.count, a.total_ns))
                .collect(),
            counters: st.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
        })
    }

    /// Deterministic structural export for tests: span/phase paths with
    /// counts and counters with values, sorted, **no wall-clock values**.
    /// Byte-identical across runs and `--jobs` settings for the same
    /// work. `None` when disabled.
    pub fn export_text(&self) -> Option<String> {
        let snap = self.snapshot()?;
        let mut out = String::from("# mac-prof v1\n");
        for (path, count, _ns) in &snap.phases {
            out.push_str(&format!("span {path} count={count}\n"));
        }
        for (name, value) in &snap.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        Some(out)
    }

    /// Wall-clock JSON export (`mac-prof-v1` schema): per-path
    /// aggregates with total nanoseconds, counters, and the stored span
    /// records. `None` when disabled.
    pub fn export_json(&self) -> Option<String> {
        let snap = self.snapshot()?;
        let mut out = String::from("{\"schema\":\"mac-prof-v1\",\"phases\":[");
        for (i, (path, count, ns)) in snap.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"path\":\"{}\",\"count\":{count},\"total_ns\":{ns}}}",
                json::escape(path)
            ));
        }
        out.push_str("\n],\"counters\":{");
        for (i, (name, value)) in snap.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{value}", json::escape(name)));
        }
        out.push_str(&format!("}},\"dropped\":{},\"spans\":[", snap.dropped));
        for (i, s) in snap.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"path\":\"{}\",\"tid\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                json::escape(&s.path),
                s.tid,
                s.start_ns,
                s.dur_ns
            ));
        }
        out.push_str("\n]}\n");
        Some(out)
    }
}

struct LiveSpan {
    inner: Arc<ProfInner>,
    path: String,
    start: Instant,
}

/// RAII guard returned by [`Profiler::span`]; records the span when
/// dropped. Inert (and allocation-free) when the profiler is disabled.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let end = Instant::now();
        let start_ns = saturating_ns(live.start.duration_since(live.inner.epoch).as_nanos());
        let dur_ns = saturating_ns(end.duration_since(live.start).as_nanos()).max(1);
        let tid = HOST_TID.with(|t| *t);
        let mut st = live.inner.state.lock().unwrap();
        let agg = st.phases.entry(live.path.clone()).or_default();
        agg.count += 1;
        agg.total_ns += dur_ns;
        if st.spans.len() < MAX_SPAN_RECORDS {
            st.spans.push(SpanRecord {
                path: live.path,
                tid,
                start_ns,
                dur_ns,
            });
        } else {
            st.dropped += 1;
        }
    }
}

fn saturating_ns(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        {
            let _g = p.span("never");
        }
        p.accum("never", 10, 1);
        p.add("never", 1);
        assert_eq!(p.now_ns(), 0);
        assert!(p.snapshot().is_none());
        assert!(p.export_text().is_none());
        assert!(p.export_json().is_none());
    }

    #[test]
    fn spans_aggregate_and_record() {
        let p = Profiler::enabled();
        for _ in 0..3 {
            let _g = p.span("pool/execute");
        }
        let snap = p.snapshot().unwrap();
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.phases.len(), 1);
        let (path, count, total_ns) = &snap.phases[0];
        assert_eq!(path, "pool/execute");
        assert_eq!(*count, 3);
        assert!(*total_ns >= 3, "each span reports at least 1ns");
        for s in &snap.spans {
            assert_eq!(s.path, "pool/execute");
            assert!(s.dur_ns >= 1);
        }
    }

    #[test]
    fn accum_folds_without_span_records() {
        let p = Profiler::enabled();
        p.accum("system/run/tick", 5_000, 100);
        p.accum("system/run/tick", 2_500, 50);
        p.accum("system/run/zero", 0, 0); // no-op: nothing recorded
        let snap = p.snapshot().unwrap();
        assert!(snap.spans.is_empty());
        assert_eq!(
            snap.phases,
            vec![("system/run/tick".to_string(), 150, 7_500)]
        );
    }

    #[test]
    fn counters_accumulate_in_name_order() {
        let p = Profiler::enabled();
        p.add("pool/cache_hit", 2);
        p.add("pool/cache_probe", 5);
        p.add("pool/cache_hit", 1);
        let snap = p.snapshot().unwrap();
        assert_eq!(
            snap.counters,
            vec![
                ("pool/cache_hit".to_string(), 3),
                ("pool/cache_probe".to_string(), 5)
            ]
        );
    }

    #[test]
    fn text_export_is_structural_only() {
        let p = Profiler::enabled();
        {
            let _g = p.span("b/second");
        }
        {
            let _g = p.span("a/first");
        }
        p.accum("hot/phase", 1234, 7);
        p.add("hits", 9);
        let text = p.export_text().unwrap();
        assert_eq!(
            text,
            "# mac-prof v1\n\
             span a/first count=1\n\
             span b/second count=1\n\
             span hot/phase count=7\n\
             counter hits 9\n"
        );
        // No wall-clock values leak into the deterministic export.
        assert!(!text.contains("ns"));
    }

    #[test]
    fn json_export_has_schema_and_spans() {
        let p = Profiler::enabled();
        {
            let _g = p.span("pool/run_batch");
        }
        p.add("jobs", 1);
        let json = p.export_json().unwrap();
        assert!(json.starts_with("{\"schema\":\"mac-prof-v1\","));
        assert!(json.contains("\"path\":\"pool/run_batch\",\"count\":1"));
        assert!(json.contains("\"counters\":{\"jobs\":1}"));
        assert!(json.contains("\"dur_ns\":"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn clones_share_state_and_equality_is_observational() {
        let a = Profiler::enabled();
        let b = a.clone();
        {
            let _g = b.span("shared");
        }
        assert_eq!(a.snapshot().unwrap().spans.len(), 1);
        assert_eq!(a, Profiler::disabled());
    }

    #[test]
    fn span_records_cap_but_aggregates_do_not() {
        let p = Profiler::enabled();
        // Pre-fill the record buffer to the cap, then overflow by 2.
        {
            let inner = p.inner.as_ref().unwrap();
            let mut st = inner.state.lock().unwrap();
            st.spans = (0..MAX_SPAN_RECORDS)
                .map(|i| SpanRecord {
                    path: "fill".into(),
                    tid: 1,
                    start_ns: i as u64,
                    dur_ns: 1,
                })
                .collect();
        }
        {
            let _g = p.span("over");
        }
        {
            let _g = p.span("over");
        }
        let snap = p.snapshot().unwrap();
        assert_eq!(snap.spans.len(), MAX_SPAN_RECORDS);
        assert_eq!(snap.dropped, 2);
        let over = snap.phases.iter().find(|(p, _, _)| p == "over").unwrap();
        assert_eq!(over.1, 2, "aggregates keep counting past the cap");
    }
}
