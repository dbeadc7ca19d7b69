//! Simulated results of one pass, summed over its simulations, and the
//! ratios derived from them. Every ratio names its base.

use hmc_model::HmcStats;
use mac_sim::RunReport;

use crate::stats::ratio;
use crate::suite::Pass;

/// The paper's Fig. 17 mean memory-system speedup, percent.
pub const PAPER_SPEEDUP_PCT: f64 = 60.73;
/// The paper's Fig. 10 mean coalescing efficiency at 8 threads, percent.
pub const PAPER_COAL_EFF_PCT: f64 = 52.86;

/// Simulated totals of one pass (identical on every pass of a run; the
/// output checks hold each simulation's key metrics fixed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Simulated {
    /// Simulations with a report.
    pub sims: u64,
    /// Simulated cycles, summed.
    pub cycles: u64,
    /// Raw requests the cores issued, summed.
    pub raw_requests: u64,
    /// Raw memory requests that reached a MAC (MAC-on simulations only).
    pub mac_raw: u64,
    /// Transactions the MACs dispatched (MAC-on simulations only).
    pub mac_emitted: u64,
    /// Of those, dispatched on the single-FLIT bypass path.
    pub mac_bypass: u64,
    /// Merged raw requests over popped group entries: `(sum, entries)`.
    pub targets: (u128, u64),
    /// Device statistics merged over every simulation.
    pub hmc: HmcStats,
    /// Demand requests per cycle (Eq. 2 at IPC 1), summed over simulations.
    pub demand_rpc_sum: f64,
    /// Accesses that crossed the cube fabric.
    pub remote_accesses: u64,
    /// FLITs that crossed cube-to-cube links.
    pub transit_flits: u128,
}

impl Simulated {
    /// Sum the reports of `pass`.
    pub fn of(pass: &Pass) -> Simulated {
        let mut s = Simulated::default();
        for r in pass.sims.iter().filter_map(|o| o.report.as_ref()) {
            s.add(r);
        }
        s
    }

    fn add(&mut self, r: &RunReport) {
        self.sims += 1;
        self.cycles += r.cycles;
        self.raw_requests += r.soc.raw_requests;
        if !r.config.mac_disabled {
            self.mac_raw += r.mac.raw_memory_requests();
            self.mac_emitted += r.mac.emitted_total();
            self.mac_bypass += r.mac.emitted_bypass;
            self.targets.0 += r.mac.targets_per_entry.sum;
            self.targets.1 += r.mac.targets_per_entry.events;
        }
        self.hmc.merge(&r.hmc);
        self.demand_rpc_sum += r.demand_rpc();
        self.remote_accesses += r.net.remote_accesses;
        self.transit_flits += r.net.transit_flits;
    }

    /// Share of raw memory requests the MACs eliminated:
    /// `1 - emitted / raw`, base = raw memory requests of MAC-on runs.
    pub fn coal_eff(&self) -> f64 {
        if self.mac_raw == 0 {
            0.0
        } else {
            1.0 - ratio(self.mac_emitted as f64, self.mac_raw as f64)
        }
    }

    /// Merged raw requests per popped ARQ group entry (base: entries).
    pub fn targets_per_entry(&self) -> f64 {
        ratio(self.targets.0 as f64, self.targets.1 as f64)
    }

    /// Bypass dispatches over all MAC dispatches (base: MAC dispatches).
    pub fn bypass_frac(&self) -> f64 {
        ratio(self.mac_bypass as f64, self.mac_emitted as f64)
    }

    /// Mean demand requests per cycle over simulations (base: simulations).
    pub fn demand_rpc(&self) -> f64 {
        ratio(self.demand_rpc_sum, self.sims as f64)
    }

    /// Share of simulated cycles the event-driven loop skipped:
    /// `1 - ticks / cycles`, base = simulated cycles.
    pub fn skip_frac(&self, ticks: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            1.0 - ratio(ticks as f64, self.cycles as f64)
        }
    }
}

/// The Fig. 10 / Fig. 17 means over with/without-MAC pairs, percent:
/// `(mean memory speedup, mean coalescing efficiency of the MAC runs)`.
/// `None` unless every simulation of `pass` belongs to a `mac`/`nomac`
/// pair with a report.
pub fn paper_means(pass: &Pass) -> Option<(f64, f64)> {
    let mut speedup = Vec::new();
    let mut eff = Vec::new();
    for pair in pass.sims.chunks(2) {
        let [w, wo] = pair else { return None };
        if (w.variant, wo.variant) != ("mac", "nomac") {
            return None;
        }
        let (w, wo) = (w.report.as_ref()?, wo.report.as_ref()?);
        speedup.push(w.memory_speedup_vs(wo));
        eff.push(w.coalescing_efficiency() * 100.0);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (!speedup.is_empty()).then(|| (mean(&speedup), mean(&eff)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SimOutcome;
    use mac_types::ReqSize;

    fn outcome(variant: &'static str, report: RunReport) -> SimOutcome {
        SimOutcome {
            kernel: "k",
            variant,
            guest: false,
            generate_s: 0.0,
            ops: 0,
            build_s: 0.0,
            run_s: 0.0,
            report: Some(report),
        }
    }

    fn report(mac_disabled: bool, raw: u64, emitted_16b: u64, latency: u64) -> RunReport {
        let mut r = RunReport::default();
        r.config.mac_disabled = mac_disabled;
        r.cycles = 100;
        r.soc.raw_requests = raw;
        r.mac.raw_loads = raw;
        r.mac.emitted_by_size[0] = emitted_16b;
        r.mac.emitted_bypass = emitted_16b / 2;
        for _ in 0..emitted_16b {
            r.hmc.record_access(ReqSize::B16, 16, 1, false, latency);
        }
        r
    }

    fn pass(sims: Vec<SimOutcome>) -> Pass {
        Pass {
            wall_s: 1.0,
            setup_s: 0.1,
            sims,
        }
    }

    #[test]
    fn mac_ratios_use_only_mac_on_runs_as_base() {
        // The MAC-off twin's counters must not dilute the MAC ratios.
        let p = pass(vec![
            outcome("mac", report(false, 100, 40, 10)),
            outcome("nomac", report(true, 100, 0, 10)),
        ]);
        let s = Simulated::of(&p);
        assert_eq!((s.mac_raw, s.mac_emitted), (100, 40));
        assert!((s.coal_eff() - 0.6).abs() < 1e-12);
        assert!((s.bypass_frac() - 0.5).abs() < 1e-12);
        assert_eq!(s.raw_requests, 200, "soc counts cover both twins");
        assert_eq!(s.cycles, 200);
    }

    #[test]
    fn skip_frac_is_based_on_simulated_cycles() {
        let p = pass(vec![outcome("mac", report(false, 10, 5, 1))]);
        let s = Simulated::of(&p);
        assert!((s.skip_frac(25) - 0.75).abs() < 1e-12);
        assert_eq!(Simulated::default().skip_frac(0), 0.0);
    }

    #[test]
    fn paper_means_average_per_pair_like_fig17() {
        // Pair 1: latency 4 vs 10 per access, 10 accesses each -> 60%.
        // Pair 2: latency 5 vs 10 -> 50%. Mean speedup 55%.
        let mut a = report(false, 20, 10, 4);
        let mut b = report(false, 20, 10, 5);
        a.mac.emitted_by_size[0] = 10; // efficiency 50%
        b.mac.emitted_by_size[0] = 15; // efficiency 25%
        let p = pass(vec![
            outcome("mac", a),
            outcome("nomac", report(true, 20, 10, 10)),
            outcome("mac", b),
            outcome("nomac", report(true, 20, 10, 10)),
        ]);
        let (speedup, eff) = paper_means(&p).expect("pairs");
        assert!((speedup - 55.0).abs() < 1e-9, "{speedup}");
        assert!((eff - 37.5).abs() < 1e-9, "{eff}");
    }

    #[test]
    fn paper_means_need_mac_nomac_pairs() {
        let p = pass(vec![outcome("mac", report(false, 10, 5, 1))]);
        assert_eq!(paper_means(&p), None);
        let p = pass(vec![
            outcome("percube", report(false, 10, 5, 1)),
            outcome("hostonly", report(false, 10, 5, 1)),
        ]);
        assert_eq!(paper_means(&p), None);
    }
}
