//! perfbench: the repository benchmark. Runs one workload of the MAC
//! simulator for a fixed time and prints its metrics, one JSON object
//! on the last line of standard output. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <paper_suite|latency_bound|guest_fabric>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times untraced passes and reports the end-to-end
//! metrics; `--trace 1` runs the component replay and alternates
//! untraced and traced passes, and reports the per-layer metrics.

mod layers;
mod replay;
mod spans;
mod stats;
mod suite;

use std::process::ExitCode;
use std::time::Instant;

use mac_telemetry::Profiler;

use layers::{paper_means, Simulated, PAPER_COAL_EFF_PCT, PAPER_SPEEDUP_PCT};
use replay::{raw_stream, replay, ReplayStats};
use spans::{self_times, to_trace_json, Recorder};
use stats::{median, ratio, Summary};
use suite::{generate, run_pass, setup_only, Checker, Group, Name, Pass, SimOutcome};

const USAGE: &str = "usage: perfbench --workload <paper_suite|latency_bound|guest_fabric> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Share of an untraced run spent on set-up-only repetitions before the
/// timed passes (at least [`MIN_SETUP_REPS`]); every pass adds one more
/// set-up sample.
const SETUP_SHARE: f64 = 0.1;
/// Fewest set-up-only repetitions of an untraced run.
const MIN_SETUP_REPS: usize = 5;

/// Parsed command line.
struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Name::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(val.parse::<u64>().map_err(bad)?.max(1) as f64),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run prints as its final JSON line.
struct Output {
    checker: Checker,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let groups = suite::groups(args.workload, args.seed);
    let sims: usize = groups.iter().map(|g| g.variants.len()).sum();
    println!(
        "perfbench {} seed={} seconds={} trace={} sims/pass={sims} host_threads={}",
        args.workload.as_str(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let out = if args.trace {
        traced_run(&args, &groups)
    } else {
        match timed_run(&args, &groups) {
            Some(o) => o,
            None => {
                eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
                return ExitCode::FAILURE;
            }
        }
    };
    for note in &out.checker.notes {
        println!("FAILED {note}");
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}

fn result_json(out: &Output) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checker.failed == 0 && out.checker.attempted > 0,
        out.checker.attempted,
        out.checker.failed,
        metrics.join(", ")
    )
}

/// Peak resident set of this process in MiB (`VmHWM`). One process runs
/// one workload, so the peak is that workload's alone.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Per-simulation host times across passes: `(total_s, run_s, raw
/// requests)` of the k-th simulation of the workload. Each time is the
/// simulation's tail ([`Summary::tail`]) when at least 20 passes ran,
/// else its median. The reference host runs at a most-contended speed
/// with spells of seconds up to ~1.9x faster; the tail stays on the
/// most-contended speed whatever share of a run the fast spells take,
/// where the median moves with that share.
fn per_sim_times(passes: &[Pass]) -> Vec<(f64, f64, u64)> {
    (0..passes[0].sims.len())
        .map(|k| {
            let col = |f: &dyn Fn(&SimOutcome) -> f64| -> f64 {
                let s = Summary::of(&passes.iter().map(|p| f(&p.sims[k])).collect::<Vec<_>>());
                s.tail.map_or(s.median, |(_, v)| v)
            };
            let raw = passes[0].sims[k]
                .report
                .as_ref()
                .map_or(0, |r| r.soc.raw_requests);
            (col(&|s| s.total_s()), col(&|s| s.run_s), raw)
        })
        .collect()
}

/// Print the paper-accuracy lines (paper_suite only) and return
/// `(speedup, |speedup error|, efficiency, |efficiency error|)`, zeros
/// when the workload has no with/without-MAC pairs. The text keeps the
/// sign of each error; the metrics carry its size.
fn paper_accuracy(pass: &Pass) -> [f64; 4] {
    let Some((speedup, eff)) = paper_means(pass) else {
        println!("paper accuracy: not applicable (no with/without-MAC pairs)");
        return [0.0; 4];
    };
    let (se, ee) = (speedup - PAPER_SPEEDUP_PCT, eff - PAPER_COAL_EFF_PCT);
    println!(
        "mem_speedup_pct {speedup:.4} %, model - paper = {se:+.4} pp \
         (Fig. 17 mean over {} pairs; paper {PAPER_SPEEDUP_PCT} %)",
        pass.sims.len() / 2
    );
    println!(
        "coal_eff_pct    {eff:.4} %, model - paper = {ee:+.4} pp \
         (Fig. 10 mean at 8 threads; paper {PAPER_COAL_EFF_PCT} %)"
    );
    println!("the model is unvalidated beyond these two paper means");
    [speedup, se.abs(), eff, ee.abs()]
}

/// Untraced run: one pass in the fresh process (its peak memory is the
/// workload's), then set-up-only repetitions, then passes until the time
/// is up.
fn timed_run(args: &Args, groups: &[Group]) -> Option<Output> {
    let start = Instant::now();
    let mut checker = Checker::default();
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass = |passes: &mut Vec<Pass>, setups: &mut Vec<f64>| {
        let p = run_pass(groups, &mut Recorder::off(), &Profiler::disabled());
        checker.check(groups, &p);
        setups.push(p.setup_s);
        passes.push(p);
    };
    pass(&mut passes, &mut setups);
    let rss = peak_rss_mib()?;
    let setup_end = start.elapsed().as_secs_f64() + SETUP_SHARE * args.seconds;
    for rep in 0.. {
        if rep >= MIN_SETUP_REPS && start.elapsed().as_secs_f64() >= setup_end {
            break;
        }
        setups.push(setup_only(groups));
    }
    loop {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        if start.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            break;
        }
        pass(&mut passes, &mut setups);
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let per_sim: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.sims.iter().map(|s| s.total_s()))
        .collect();
    let times = per_sim_times(&passes);
    let wall_s: f64 = times.iter().map(|m| m.0).sum();
    let run_s: f64 = times.iter().map(|m| m.1).sum();
    let raw: u64 = times.iter().map(|m| m.2).sum();
    let kreq_per_s = ratio(raw as f64, run_s) / 1e3;
    let setup = Summary::of(&setups);
    let sim = Simulated::of(&passes[0]);
    println!(
        "wall_s         {wall_s:.4} s per pass: sum over simulations of each one's tail (median below 20 passes)"
    );
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "  pass walls   {} s: {}",
        Summary::of(&walls).describe(4),
        listed.join(" ")
    );
    println!("  simulations  {} s", Summary::of(&per_sim).describe(4));
    println!("setup_s        {} s per pass", setup.describe(4));
    println!("sim_kreq_per_s {kreq_per_s:.2} kreq/s: {raw} raw requests over {run_s:.4} s of run time (same statistic)");
    println!("peak_rss_mib   {rss:.2} MiB");
    println!(
        "sim_cycles     {} cycles over {} simulations",
        sim.cycles, sim.sims
    );
    println!(
        "failed_frac    {}/{} = {}",
        checker.failed,
        checker.attempted,
        ratio(checker.failed as f64, checker.attempted as f64)
    );
    paper_accuracy(&passes[0]);
    Some(Output {
        checker,
        metrics: vec![
            ("wall_s", wall_s, "s"),
            ("setup_s", setup.median, "s"),
            ("sim_kreq_per_s", kreq_per_s, "kreq/s"),
            ("peak_rss_mib", rss, "MiB"),
            ("sim_cycles", sim.cycles as f64, "cycles"),
        ],
    })
}

/// Traced run: the component replay, then untraced and traced passes in
/// alternation until the time is up, then the per-layer metrics.
fn traced_run(args: &Args, groups: &[Group]) -> Output {
    let start = Instant::now();
    let mut rec = Recorder::on();

    let mut rs = ReplayStats::default();
    rec.span("bench.replay", 0, |rec| {
        for g in groups {
            let (traces, _) = rec.span("replay.generate", 0, |_| generate(g));
            let Some(traces) = traces else { continue };
            let raws = raw_stream(&traces);
            for (_, cfg) in &g.variants {
                let id = rec.new_sim();
                let (st, _) = rec.span("replay", id, |_| replay(cfg, &raws));
                rs.add(&st);
            }
        }
    });

    let profiler = Profiler::enabled();
    let mut checker = Checker::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let u = run_pass(groups, &mut Recorder::off(), &Profiler::disabled());
        checker.check(groups, &u);
        untraced.push(u.wall_s);
        let t = run_pass(groups, &mut rec, &profiler);
        checker.check(groups, &t);
        traced.push(t);
        let walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        if start.elapsed().as_secs_f64() + median(&untraced) + median(&walls) > args.seconds {
            break;
        }
    }

    let passes = traced.len() as f64;
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead = traced_wall / median(&untraced) - 1.0;
    let st = self_times(rec.spans());
    let self_s = |name: &str| st.get(name).copied().unwrap_or(0) as f64 * 1e-9 / passes;
    let phase = |suffix: &str| -> (f64, f64) {
        let snap = profiler.snapshot().expect("profiler enabled");
        snap.phases
            .iter()
            .filter(|(p, _, _)| {
                p == &format!("system/run/{suffix}") || p == &format!("netsystem/run/{suffix}")
            })
            .fold((0.0, 0.0), |(n, ns), (_, c, t)| {
                (n + *c as f64, ns + *t as f64)
            })
    };
    let (ticks, step_ns) = phase("step");
    let (scans, scan_ns) = phase("event_scan");
    let (ticks, scans) = (ticks / passes, scans / passes);
    let first = &traced[0];
    let sim = Simulated::of(first);
    let (gen_ops, guest_ops) = first.sims.iter().fold((0, 0), |(m, g), s| {
        if s.guest {
            (m, g + s.ops)
        } else {
            (m + s.ops, g)
        }
    });
    let capture_s = self_s("guest.capture");

    println!(
        "traced passes {}, untraced passes {}",
        traced.len(),
        untraced.len()
    );
    println!(
        "telemetry.trace_overhead_frac {overhead:.4} (traced wall_s {traced_wall:.4} s / untraced {:.4} s - 1)",
        median(&untraced)
    );
    let layers = [
        ("workloads", self_s("workloads.generate")),
        ("guest", capture_s),
        ("sysim.build", self_s("sysim.build")),
        ("sysim.run", self_s("sysim.run")),
        ("bench", self_s("bench.pass") + self_s("bench.sim")),
    ];
    println!("self time per traced pass (share of traced wall_s {traced_wall:.4} s):");
    for (name, s) in layers {
        println!(
            "  {name:<12} {s:>10.4} s {:>7.2} %",
            100.0 * ratio(s, traced_wall)
        );
    }
    println!(
        "  inside sysim.run: step {:.4} s over {ticks} ticks, event_scan {:.4} s over {scans} scans",
        step_ns * 1e-9 / passes,
        scan_ns * 1e-9 / passes,
    );
    println!(
        "component replay (own counts, not comparable with the full run): core {:.4} s, hmc {:.4} s over {} raw requests",
        rs.core_ns() as f64 * 1e-9,
        rs.hmc_ns() as f64 * 1e-9,
        rs.raws
    );
    let [speedup, se, eff, ee] = paper_accuracy(first);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let file = format!(
        "{path}/spans_{}_seed{}.json",
        args.workload.as_str(),
        args.seed
    );
    match std::fs::create_dir_all(path)
        .and_then(|_| std::fs::write(&file, to_trace_json(rec.spans())))
    {
        Ok(()) => println!("spans: {} written to {file}", rec.spans().len()),
        Err(e) => println!("spans: not written ({e})"),
    }

    let ns_per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    let hmc = &sim.hmc;
    let metrics = vec![
        ("workloads.generate_s", self_s("workloads.generate"), "s"),
        ("workloads.ops", gen_ops as f64, "count"),
        ("guest.capture_s", capture_s, "s"),
        (
            "guest.capture_ns_per_op",
            ratio(capture_s * 1e9, guest_ops as f64),
            "ns",
        ),
        ("sysim.build_s", self_s("sysim.build"), "s"),
        ("sysim.run_s", self_s("sysim.run"), "s"),
        ("sysim.ticks", ticks, "count"),
        (
            "sysim.step_ns_per_tick",
            ratio(step_ns, ticks * passes),
            "ns",
        ),
        ("sysim.skip_frac", sim.skip_frac(ticks as u64), "ratio"),
        ("sysim.event_scans", scans, "count"),
        ("sysim.event_scan_s", scan_ns * 1e-9 / passes, "s"),
        ("core.coal_eff", sim.coal_eff(), "ratio"),
        ("core.targets_per_entry", sim.targets_per_entry(), "count"),
        ("core.bypass_frac", sim.bypass_frac(), "ratio"),
        ("core.accept_ns", ns_per(rs.accept_ns, rs.accepts), "ns"),
        (
            "core.accept_reject_frac",
            ratio(rs.accept_rejects as f64, rs.accepts as f64),
            "ratio",
        ),
        ("core.tick_ns", ns_per(rs.tick_ns, rs.ticks), "ns"),
        ("core.expand_ns", ns_per(rs.expand_ns, rs.expands), "ns"),
        ("core.replay_s", rs.core_ns() as f64 * 1e-9, "s"),
        ("hmc.accesses", hmc.accesses() as f64, "count"),
        ("hmc.bank_conflicts", hmc.bank_conflicts as f64, "count"),
        (
            "hmc.latency_p50_cycles",
            hmc.latency_hist.quantile(0.5) as f64,
            "cycles",
        ),
        (
            "hmc.latency_p99_cycles",
            hmc.latency_hist.quantile(0.99) as f64,
            "cycles",
        ),
        ("hmc.bw_eff", hmc.bandwidth_efficiency(), "ratio"),
        ("hmc.submit_ns", ns_per(rs.submit_ns, rs.submits), "ns"),
        ("hmc.drain_ns", ns_per(rs.drain_ns, rs.drains), "ns"),
        (
            "hmc.backpressure_frac",
            ratio(rs.backpressured as f64, rs.can_accepts as f64),
            "ratio",
        ),
        ("hmc.replay_s", rs.hmc_ns() as f64 * 1e-9, "s"),
        ("soc.raw_requests", sim.raw_requests as f64, "count"),
        ("soc.demand_rpc", sim.demand_rpc(), "req/cycle"),
        ("net.remote_accesses", sim.remote_accesses as f64, "count"),
        ("net.link_bytes", (sim.transit_flits * 16) as f64, "B"),
        ("telemetry.trace_overhead_frac", overhead, "ratio"),
        (
            "bench.self_s",
            self_s("bench.pass") + self_s("bench.sim"),
            "s",
        ),
        ("mem_speedup_pct", speedup, "%"),
        ("speedup_err_pp", se, "pp"),
        ("coal_eff_pct", eff, "%"),
        ("coal_eff_err_pp", ee, "pp"),
        (
            "failed_frac",
            ratio(checker.failed as f64, checker.attempted as f64),
            "ratio",
        ),
    ];
    Output { checker, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload latency_bound --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Name::LatencyBound, 7, 12.0, true)
        );
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload paper_suite --seed 1 --seconds 1 --trace 2").is_err());
        assert!(
            args("--workload paper_suite --seconds 1 --trace 0").is_err(),
            "seed is required"
        );
        assert!(args("--bogus 1").is_err());
    }
}
