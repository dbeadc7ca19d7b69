//! Trace analyzer — the §5.1 component that "inspects the memory
//! instruction stream and retrieves HMC row number and FLIT ID", extended
//! with the locality statistics that explain each benchmark's coalescing
//! results: row footprints, same-row run lengths, inter-thread row
//! sharing, and an ARQ-window upper bound on coalescing efficiency.

use std::collections::HashMap;

use mac_types::{Counter, MemOpKind, RowId};
use mac_workloads::count_mem_ops;
use soc_sim::ThreadOp;

/// Locality statistics of one workload trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Memory operations in the trace.
    pub mem_ops: usize,
    /// Load operations in the trace.
    pub loads: u64,
    /// Store operations in the trace.
    pub stores: u64,
    /// Atomic read-modify-write operations in the trace.
    pub atomics: u64,
    /// Fence operations in the trace.
    pub fences: u64,
    /// Distinct DRAM rows touched (the row footprint).
    pub distinct_rows: usize,
    /// Same-row run lengths within each thread's stream (a run of k means
    /// k consecutive memory ops in one row — intra-thread coalescing
    /// potential).
    pub run_length: Counter,
    /// Rows touched by more than one thread (inter-thread coalescing
    /// potential).
    pub shared_rows: usize,
    /// Mean accesses per touched row.
    pub accesses_per_row: f64,
}

impl TraceAnalysis {
    /// Upper bound on Eq. 3 coalescing efficiency if every same-row
    /// access in the whole trace merged (ignoring ARQ capacity, timing,
    /// and the load/store split): `1 − rows/accesses`.
    pub fn oracle_efficiency(&self) -> f64 {
        let accesses = (self.loads + self.stores) as f64;
        if accesses == 0.0 {
            0.0
        } else {
            (1.0 - self.distinct_rows as f64 / accesses).max(0.0)
        }
    }
}

/// Analyze a generated per-thread trace.
pub fn analyze(trace: &[Vec<ThreadOp>]) -> TraceAnalysis {
    let mut a = TraceAnalysis {
        mem_ops: count_mem_ops(trace),
        ..TraceAnalysis::default()
    };
    let mut row_threads: HashMap<RowId, (u32, u64)> = HashMap::new(); // (thread mask-ish count, accesses)
    let mut row_owner: HashMap<RowId, usize> = HashMap::new();
    let mut shared: std::collections::HashSet<RowId> = std::collections::HashSet::new();

    for (tid, ops) in trace.iter().enumerate() {
        let mut current_row: Option<RowId> = None;
        let mut run = 0u64;
        for op in ops {
            let ThreadOp::Mem { addr, kind } = op else {
                continue;
            };
            match kind {
                MemOpKind::Load => a.loads += 1,
                MemOpKind::Store => a.stores += 1,
                MemOpKind::Atomic => a.atomics += 1,
                MemOpKind::Fence => a.fences += 1,
            }
            if *kind == MemOpKind::Fence {
                continue;
            }
            let row = addr.row();
            let e = row_threads.entry(row).or_insert((0, 0));
            e.1 += 1;
            match row_owner.get(&row) {
                None => {
                    row_owner.insert(row, tid);
                }
                Some(&owner) if owner != tid => {
                    shared.insert(row);
                }
                _ => {}
            }
            if current_row == Some(row) {
                run += 1;
            } else {
                if run > 0 {
                    a.run_length.record(run);
                }
                current_row = Some(row);
                run = 1;
            }
        }
        if run > 0 {
            a.run_length.record(run);
        }
    }
    a.distinct_rows = row_threads.len();
    a.shared_rows = shared.len();
    let total_accesses: u64 = row_threads.values().map(|(_, n)| n).sum();
    a.accesses_per_row = if a.distinct_rows == 0 {
        0.0
    } else {
        total_accesses as f64 / a.distinct_rows as f64
    };
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::PhysAddr;
    use mac_workloads::{all_workloads, WorkloadParams};

    fn load(addr: u64) -> ThreadOp {
        ThreadOp::Mem {
            addr: PhysAddr::new(addr),
            kind: MemOpKind::Load,
        }
    }

    #[test]
    fn counts_and_rows() {
        let trace = vec![
            vec![load(0x000), load(0x010), load(0x100)],
            vec![
                load(0x020),
                ThreadOp::Mem {
                    addr: PhysAddr::new(0x200),
                    kind: MemOpKind::Store,
                },
            ],
        ];
        let a = analyze(&trace);
        assert_eq!(a.mem_ops, 5);
        assert_eq!(a.loads, 4);
        assert_eq!(a.stores, 1);
        assert_eq!(a.distinct_rows, 3);
        assert_eq!(a.shared_rows, 1, "row 0 touched by both threads");
        // Runs: thread0 [2,1], thread1 [1,1].
        assert_eq!(a.run_length.events, 4);
        assert_eq!(a.run_length.max, 2);
    }

    #[test]
    fn oracle_efficiency_bounds() {
        // 4 loads in 1 row: oracle = 1 - 1/4.
        let trace = vec![vec![load(0), load(16), load(32), load(48)]];
        let a = analyze(&trace);
        assert!((a.oracle_efficiency() - 0.75).abs() < 1e-9);
        // All distinct rows: oracle 0.
        let trace = vec![vec![load(0), load(0x100), load(0x200)]];
        assert_eq!(analyze(&trace).oracle_efficiency(), 0.0);
    }

    #[test]
    fn oracle_bounds_measured_efficiency_for_every_workload() {
        use crate::experiment::{run_workload, ExperimentConfig, RunOptions};
        let mut cfg = ExperimentConfig::paper(4);
        cfg.workload.scale = 1;
        let params = WorkloadParams {
            threads: 4,
            scale: 1,
            seed: cfg.workload.seed,
        };
        for w in all_workloads().into_iter().take(4) {
            let oracle = analyze(&w.generate(&params)).oracle_efficiency();
            let measured =
                run_workload(w.as_ref(), &cfg, RunOptions::default()).coalescing_efficiency();
            assert!(
                measured <= oracle + 0.02,
                "{}: measured {measured:.3} exceeds oracle {oracle:.3}",
                w.name()
            );
        }
    }

    #[test]
    fn fences_do_not_enter_row_stats() {
        let trace = vec![vec![
            load(0),
            ThreadOp::Mem {
                addr: PhysAddr::new(0),
                kind: MemOpKind::Fence,
            },
            load(16),
        ]];
        let a = analyze(&trace);
        assert_eq!(a.fences, 1);
        assert_eq!(a.distinct_rows, 1);
        // The fence does not break the same-row run in this analysis.
        assert_eq!(a.run_length.max, 2);
    }

    #[test]
    fn empty_trace() {
        let a = analyze(&[]);
        assert_eq!(a.mem_ops, 0);
        assert_eq!(a.oracle_efficiency(), 0.0);
        assert_eq!(a.accesses_per_row, 0.0);
    }
}
