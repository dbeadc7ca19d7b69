//! # mac-repro
//!
//! A from-scratch Rust reproduction of **MAC: Memory Access Coalescer for
//! 3D-Stacked Memory** (Wang, Tumeo, Leidel, Li, Chen — ICPP 2019).
//!
//! MAC is a processor-side coalescing unit that merges fine-grained
//! (16 B FLIT) memory requests from a cache-less multicore node into the
//! large packets (64–256 B) that Hybrid Memory Cube devices need to reach
//! peak bandwidth — cutting request counts roughly in half and removing
//! the bank conflicts that closed-page 3D-stacked DRAM suffers under
//! irregular access streams.
//!
//! This facade re-exports the workspace crates:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`types`] | `mac-types` | addresses, FLIT maps, requests, packets, configuration |
//! | [`coalescer`] | `mac-coalescer` | the MAC itself: routers, ARQ, request builder, FLIT table |
//! | [`hmc`] | `hmc-model` | the HMC device simulator (links, vaults, closed-page banks) |
//! | [`cache`] | `cache-model` | set-associative cache + MSHR baseline |
//! | [`rv64`] | `rv64-sim` | RV64 interpreter + assembler with trace capture |
//! | [`soc`] | `soc-sim` | cores, scratchpads, thread programs |
//! | [`workloads`] | `mac-workloads` | the 12 irregular benchmarks |
//! | [`sim`] | `mac-sim` | full-system simulator + figure harness |
//!
//! ## Quickstart
//!
//! Coalesce sixteen same-row loads into device transactions:
//!
//! ```
//! use mac_repro::prelude::*;
//!
//! let cfg = SystemConfig::paper(8);
//! // Eight threads, each loading one FLIT of the same 256 B DRAM row.
//! let programs: Vec<Box<dyn ThreadProgram>> = (0..8)
//!     .map(|t| {
//!         Box::new(ReplayProgram::loads([0x4000 + t * 16], 0)) as Box<dyn ThreadProgram>
//!     })
//!     .collect();
//! let report = SystemSim::new(&cfg, programs).run(1_000_000);
//!
//! assert_eq!(report.soc.completions, 8);
//! // The MAC merged the eight raw requests into fewer HMC transactions.
//! assert!(report.hmc.accesses() < 8);
//! ```
//!
//! Run a paper benchmark end to end:
//!
//! ```
//! use mac_repro::prelude::*;
//!
//! let mut cfg = ExperimentConfig::paper(4);
//! cfg.workload.scale = 1;
//! let (with_mac, without_mac) = run_pair(&mac_repro::workloads::sg::ScatterGather, &cfg);
//! assert!(with_mac.hmc.accesses() < without_mac.hmc.accesses());
//! assert!(with_mac.memory_speedup_vs(&without_mac) > 0.0);
//! ```

pub use cache_model as cache;
pub use hmc_model as hmc;
pub use mac_coalescer as coalescer;
pub use mac_sim as sim;
pub use mac_types as types;
pub use mac_workloads as workloads;
pub use rv64_sim as rv64;
pub use soc_sim as soc;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use cache_model::{Cache, CacheConfig, MshrFile};
    pub use hmc_model::HmcDevice;
    pub use mac_coalescer::{Mac, MacEvent};
    pub use mac_sim::experiment::{run_pair, run_workload, ExperimentConfig, RunOptions};
    pub use mac_sim::{RunReport, SystemSim};
    pub use mac_types::{
        FlitMap, HmcConfig, MacConfig, MemOpKind, PhysAddr, RawRequest, ReqSize, SocConfig,
        SystemConfig,
    };
    pub use mac_workloads::{all_workloads, by_name, Workload, WorkloadParams};
    pub use rv64_sim::{assemble, Cpu, FlatMemory};
    pub use soc_sim::{ReplayProgram, Rv64Program, ThreadOp, ThreadProgram};
}
