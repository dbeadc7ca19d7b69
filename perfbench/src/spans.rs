//! In-memory span recorder for the traced run. Spans are recorded by
//! the benchmark around its calls into each layer; nothing inside the
//! simulator records here. All spans of one simulation share its `sim`
//! id. The recorder keeps everything in memory and serialises it once,
//! at the end, as Chrome trace-event JSON (opens in Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`sysim.run`, `workloads.generate`, …).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Simulation id shared by every span of one simulation (0 for
    /// spans that belong to no single simulation, such as a pass).
    pub sim: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times closures and, when enabled, records each as a span whose parent
/// is the span open around it.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// `None` when recording is off; timing still works.
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
    sims: u32,
}

impl Recorder {
    /// A recorder that only times (the untraced runs).
    pub fn off() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: None,
            open: Vec::new(),
            sims: 0,
        }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Recorder {
            spans: Some(Vec::new()),
            ..Recorder::off()
        }
    }

    /// A fresh simulation id (1, 2, …) for the spans of one simulation.
    pub fn new_sim(&mut self) -> u32 {
        self.sims += 1;
        self.sims
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside span `name` of simulation `sim`; returns its result
    /// and its duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        sim: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let idx = self.spans.as_mut().map(|v| {
            v.push(Span {
                name,
                parent: None,
                sim,
                start_ns: 0,
                end_ns: 0,
            });
            v.len() - 1
        });
        if let Some(i) = idx {
            self.open.push(i);
        }
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        if let Some(i) = idx {
            self.open.pop();
            let parent = self.open.last().copied();
            let s = &mut self.spans.as_mut().expect("recording")[i];
            (s.parent, s.start_ns, s.end_ns) = (parent, start, end);
        }
        (out, (end - start) as f64 * 1e-9)
    }

    /// The recorded spans (empty when off).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Self time per span name in nanoseconds: each span's duration minus
/// the durations of its direct children (children never overlap: the
/// benchmark is single-threaded).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// Chrome trace-event JSON (`ph: "X"` complete events, microseconds).
pub fn to_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"sim\":{}}}}}{}\n",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.sim,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            sim: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("sim", Some(0), 10, 90),
            span("sysim.run", Some(1), 20, 80),
            span("sysim.build", Some(1), 80, 85),
        ];
        let st = self_times(&spans);
        assert_eq!(st["pass"], 20);
        assert_eq!(st["sim"], 80 - 60 - 5);
        assert_eq!(st["sysim.run"], 60);
        assert_eq!(st["sysim.build"], 5);
        assert_eq!(st.values().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn recorder_links_parents_and_shares_sim_ids() {
        let mut r = Recorder::on();
        let ((), outer) = r.span("sim", 7, |r| {
            r.span("sysim.build", 7, |_| ());
            r.span("sysim.run", 7, |_| ());
        });
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.sim == 7));
        assert!(outer >= 0.0);
        assert!(s[1].start_ns >= s[0].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn off_recorder_times_without_keeping_spans() {
        let mut r = Recorder::off();
        let (v, _) = r.span("sim", 1, |_| 42);
        assert_eq!(v, 42);
        assert!(r.spans().is_empty());
    }
}
