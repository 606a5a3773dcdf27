//! Design-space exploration benchmarks: the paper's analytical models cut
//! exploration "from tens of hours to seconds"; here a full per-kernel
//! exploration (hundreds to thousands of candidate designs) is measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poly_apps::suite;
use poly_device::{catalog, FpgaTuning, GpuTuning};
use poly_dse::Explorer;

fn bench_dse(c: &mut Criterion) {
    let explorer = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
    let mut group = c.benchmark_group("dse_models");
    group.sample_size(20);

    // Single-model evaluations (the inner loop of exploration).
    let app = poly_apps::asr();
    let profile = app.kernels()[0].profile();
    group.bench_function("gpu_model_estimate", |b| {
        let gpu = catalog::amd_w9100();
        let t = GpuTuning::default();
        b.iter(|| gpu.estimate(&profile, &t))
    });
    group.bench_function("fpga_model_estimate", |b| {
        let fpga = catalog::xilinx_7v3();
        let t = FpgaTuning {
            unroll: 16,
            bram_ports: 16,
            ..FpgaTuning::default()
        };
        b.iter(|| fpga.estimate(&profile, &t).expect("feasible"))
    });

    // Full per-kernel exploration for each benchmark's first kernel.
    for app in suite() {
        let kernel = app.kernels()[0].clone();
        group.bench_with_input(
            BenchmarkId::new(
                "explore_kernel",
                format!("{}::{}", app.name(), kernel.name()),
            ),
            &kernel,
            |b, kernel| b.iter(|| explorer.explore(kernel)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dse);
criterion_main!(benches);
