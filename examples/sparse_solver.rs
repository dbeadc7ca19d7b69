//! Sparse linear algebra through the MAC: the HPC side of the paper's
//! workload set (HPCG's 27-point CG, NAS-CG's random sparse matrix,
//! NAS-SP's penta-diagonal line solves), plus an ARQ-size sensitivity
//! sweep on one kernel — a per-workload slice of Figure 11.
//!
//! ```text
//! cargo run --release --example sparse_solver [scale]
//! ```

use mac_repro::prelude::*;
use mac_repro::workloads::{hpcg, nas};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mut cfg = ExperimentConfig::paper(8);
    cfg.workload.scale = scale;

    println!("-- solver kernels, Table 1 system --");
    println!(
        "{:<8} {:>12} {:>12} {:>11} {:>14}",
        "kernel", "raw reqs", "HMC txns", "coalesced", "bw efficiency"
    );
    let kernels: Vec<(&str, Box<dyn Workload>)> = vec![
        ("hpcg", Box::new(hpcg::Hpcg)),
        ("nas-cg", Box::new(nas::Cg)),
        ("nas-sp", Box::new(nas::Sp)),
    ];
    for (label, w) in &kernels {
        let r = run_workload(w.as_ref(), &cfg, RunOptions::default());
        println!(
            "{:<8} {:>12} {:>12} {:>10.2}% {:>13.2}%",
            label,
            r.soc.raw_requests,
            r.hmc.accesses(),
            r.coalescing_efficiency() * 100.0,
            r.bandwidth_efficiency() * 100.0,
        );
    }

    println!("\n-- ARQ sensitivity on HPCG (Figure 11, one workload) --");
    println!(
        "{:<12} {:>11} {:>14}",
        "ARQ entries", "coalesced", "mean lat (ns)"
    );
    for entries in [8usize, 16, 32, 64] {
        let mut c = cfg.clone();
        c.system.mac.arq_entries = entries;
        let r = run_workload(&hpcg::Hpcg, &c, RunOptions::default());
        println!(
            "{:<12} {:>10.2}% {:>14.1}",
            entries,
            r.coalescing_efficiency() * 100.0,
            r.mean_access_latency() / 3.3,
        );
    }
}
