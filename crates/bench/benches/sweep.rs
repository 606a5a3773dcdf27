//! Parallel-engine benchmarks: serial vs parallel load sweeps, cached vs
//! uncached design-space exploration, and the timer-wheel event core
//! against the binary-heap baseline it replaced — the levers behind the
//! `experiments --jobs N` wall-clock win and the DES steady-state
//! throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use poly_apps::{asr, image_recognition, QOS_BOUND_MS};
use poly_backend::MicroKernel;
use poly_core::provision::{table_iii, Architecture, Setting};
use poly_core::Optimizer;
use poly_dse::{DesignSpaceCache, Explorer};
use poly_sim::{steady_state, EventQueue, LoadSweep, SimReport, TotalF64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One LCG step: 31 pseudo-random bits, deterministic across runs.
fn next_bits(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// Engine-shaped event delta, in ms: 15 of 16 draws land within the
/// wheel's 256 × 2 ms horizon (device completions, batch wakes, PCIe
/// transfers: `[0, 256)` ms); the rest reach `[0, 4096)` ms, as request
/// deadlines and scripted faults do, and mostly wait in the overflow.
fn next_delta_ms(state: &mut u64) -> f64 {
    let bits = next_bits(state);
    let span = if bits & 15 == 0 { 4096.0 } else { 256.0 };
    (bits >> 4) as f64 * (span / 134_217_728.0)
}

/// Arrivals in one pre-enqueued interval of the `arrivals` rows.
const INTERVAL_ARRIVALS: u32 = 10_000;

fn bench_sweep(c: &mut Criterion) {
    let app = asr();
    let setup = table_iii(Setting::I, Architecture::HomoGpu);
    let explorer = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let spaces: Vec<_> = app.kernels().iter().map(|k| explorer.explore(k)).collect();
    let policy =
        Optimizer::new().max_capacity_policy(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS);
    // Short windows keep one sweep ~hundreds of ms; the serial/parallel
    // ratio is what matters, not the absolute numbers.
    let eval = |rps: f64| -> SimReport {
        steady_state(
            &app,
            &setup.pool,
            &policy,
            &setup.sim_config,
            rps,
            1_000.0,
            4_000.0,
            42,
        )
    };
    let loads: Vec<f64> = (1..=8).map(|i| f64::from(i) * 10.0).collect();
    let jobs = poly_par::jobs().unwrap_or_else(|e| panic!("{e}"));

    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("load_sweep_serial", |b| {
        b.iter(|| LoadSweep::run(black_box(&loads), eval))
    });
    group.bench_function(format!("load_sweep_parallel_jobs{jobs}"), |b| {
        b.iter(|| LoadSweep::run_par(jobs, black_box(&loads), eval))
    });

    let kernel = &app.kernels()[0];
    group.bench_function("explore_uncached", |b| {
        b.iter(|| explorer.explore(black_box(kernel)))
    });
    // IR `convolution`: 4 320 GPU candidates, the suite's largest space
    // and the worst case for Pareto pruning.
    let ir = image_recognition();
    let convolution = ir
        .kernels()
        .iter()
        .find(|k| k.name() == "convolution")
        .expect("IR has a convolution kernel");
    group.bench_function("explore_uncached_convolution", |b| {
        b.iter(|| explorer.explore(black_box(convolution)))
    });
    group.bench_function("explore_cached", |b| {
        // A bench-local cache: the first call populates, every timed call
        // after it is the hit path the experiments binary runs on.
        let cache = DesignSpaceCache::new();
        let _ = cache.explore(&explorer, kernel);
        b.iter(|| cache.explore(black_box(&explorer), black_box(kernel)))
    });

    // Event-core hold pattern: pop the earliest event, schedule a
    // successor an engine-shaped delta into the future (mostly inside
    // the wheel's horizon, see `next_delta_ms`), at a standing
    // population of 100k events (a 100-node fleet's aggregate in-flight
    // set at the `scale` figure) and 1M events (the ROADMAP's
    // millions-of-users fleet). One iteration = one pop + one push. The
    // heap baseline is the `BinaryHeap<Reverse<(TotalF64, seq, payload)>>`
    // the engine ran on before the timer wheel; both structures pop in
    // identical `(t, seq)` order (property-tested in poly-sim's
    // `equeue_order`).
    //
    // More samples than the sweep benches: these bodies are nanoseconds,
    // so per-sample noise is large and the min over many samples is the
    // honest statistic. Elements(1) => the JSON carries events/sec.
    group.sample_size(40);
    group.throughput(criterion::Throughput::Elements(1));
    for (tag, depth) in [("100k", 100_000usize), ("1m", 1_000_000)] {
        group.bench_function(format!("event_core_wheel_pop_push_{tag}"), |b| {
            let mut rng = 0x243F_6A88_85A3_08D3u64;
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..depth {
                q.push(next_delta_ms(&mut rng), i as u32);
            }
            b.iter(|| {
                let (t, _, v) = q.pop().expect("standing population");
                q.push(t + next_delta_ms(&mut rng), black_box(v));
            })
        });
        group.bench_function(format!("event_core_heap_pop_push_{tag}"), |b| {
            let mut rng = 0x243F_6A88_85A3_08D3u64;
            let mut seq = 0u64;
            let mut h: BinaryHeap<Reverse<(TotalF64, u64, u32)>> = BinaryHeap::new();
            for i in 0..depth {
                seq += 1;
                h.push(Reverse((TotalF64(next_delta_ms(&mut rng)), seq, i as u32)));
            }
            b.iter(|| {
                let Reverse((t, _, v)) = h.pop().expect("standing population");
                seq += 1;
                h.push(Reverse((
                    TotalF64(t.0 + next_delta_ms(&mut rng)),
                    seq,
                    black_box(v),
                )));
            })
        });
    }

    // An interval's pre-enqueued arrivals: 10k sorted times 1 ms apart,
    // starting 1 s past the last popped time (beyond the wheel's
    // horizon, so the wheel keeps them in its overflow's in-order run),
    // pushed and then drained. Elements(10k) => per-arrival cost.
    group.sample_size(20);
    group.throughput(criterion::Throughput::Elements(u64::from(
        INTERVAL_ARRIVALS,
    )));
    group.bench_function("event_core_wheel_interval_arrivals_10k", |b| {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut now = 0.0;
        b.iter(|| {
            for i in 0..INTERVAL_ARRIVALS {
                q.push(now + 1_000.0 + f64::from(i), black_box(i));
            }
            while let Some((t, _, v)) = q.pop() {
                now = t;
                black_box(v);
            }
        })
    });
    group.bench_function("event_core_heap_interval_arrivals_10k", |b| {
        let mut h: BinaryHeap<Reverse<(TotalF64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0.0;
        b.iter(|| {
            for i in 0..INTERVAL_ARRIVALS {
                seq += 1;
                h.push(Reverse((
                    TotalF64(now + 1_000.0 + f64::from(i)),
                    seq,
                    black_box(i),
                )));
            }
            while let Some(Reverse((t, _, v))) = h.pop() {
                now = t.0;
                black_box(v);
            }
        })
    });

    // CPU-backend kernel execution: the real work `ExecBackend::Cpu`
    // performs when it re-times a policy. One iteration = one sized
    // micro-kernel execution (the backend's unit of measurement), on the
    // smallest ASR kernel so a sample stays ~100 ms. Two views per
    // thread count: `exec` carries Elements(1) (executions/sec in the
    // JSON), `flops` carries Elements(ops-executed) so elem/s reads
    // directly as flop/s.
    group.sample_size(5);
    let micro = MicroKernel::for_profile(&app.kernels()[3].profile());
    let executed = (micro.ops_per_run * micro.repeats as f64) as u64;
    for threads in [1usize, 2, 4] {
        group.throughput(criterion::Throughput::Elements(1));
        group.bench_function(format!("cpu_backend_exec_t{threads}"), |b| {
            b.iter(|| black_box(micro.run(black_box(threads))))
        });
        group.throughput(criterion::Throughput::Elements(executed));
        group.bench_function(format!("cpu_backend_flops_t{threads}"), |b| {
            b.iter(|| black_box(micro.run(black_box(threads))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
