//! Three memory devices, one coalescer: run a gather workload on
//! closed-page HMC (the paper's target), open-page HBM (§4.3's
//! portability claim), and a conventional DDR4 channel (§2.2's baseline),
//! with and without the MAC.
//!
//! ```text
//! cargo run --release --example device_comparison [scale]
//! ```

use mac_repro::prelude::*;
use mac_repro::types::MemBackend;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let w = mac_repro::workloads::sg::ScatterGather;

    println!(
        "{:<6} {:<8} {:>12} {:>12} {:>12} {:>10}",
        "device", "mac", "transactions", "row hits", "conflicts", "mean lat"
    );
    for backend in [MemBackend::Hmc, MemBackend::Hbm, MemBackend::Ddr] {
        for mac_on in [true, false] {
            let mut cfg = ExperimentConfig::paper(8);
            cfg.workload.scale = scale;
            cfg.system.backend = backend;
            cfg.system.mac_disabled = !mac_on;
            let r = run_workload(&w, &cfg, RunOptions::default());
            println!(
                "{:<6} {:<8} {:>12} {:>12} {:>12} {:>10.0}",
                format!("{backend:?}"),
                if mac_on { "on" } else { "off" },
                r.hmc.accesses(),
                r.hmc.row_hits,
                r.bank_conflicts(),
                r.mean_access_latency(),
            );
            assert_eq!(r.soc.raw_requests, r.soc.completions);
        }
    }
    println!();
    println!("HMC: closed-page -> zero row hits; the MAC removes the conflicts.");
    println!("HBM: open-page 1 KB rows absorb some locality; MAC still halves traffic.");
    println!("DDR: 8 KB rows harvest hits but one bus serializes everything.");
}
