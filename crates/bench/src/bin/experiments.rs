//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `experiments [verify] [<id>|all] [--jobs N]`, where `<id>` names
//! one row of [`FIGURES`]: `table45 table3 table1 table2 fig1c fig1ef fig6
//! fig1a fig1b fig1d fig7 fig8 fig9 fig10 fig11 fig12 fault irregular
//! pipeline cluster chaos elastic obs backend fig13 fig14 ablations scale`.
//!
//! - `experiments <id|all>` prints each figure and writes its outputs to
//!   `results/<file>`.
//! - `experiments verify <id|all>` renders each figure at one job and at
//!   `--jobs`, byte-compares the two renders, compares each committed
//!   output with `results/<file>`, and writes nothing. It exits with
//!   status 1 on a mismatch, naming the file and its first differing line.
//!
//! `all` runs every figure except `scale` (a 100-node week, sized down for
//! smoke runs by `POLY_SCALE_NODES` / `POLY_SCALE_DAYS` /
//! `POLY_SCALE_MAX_RPS`) and `backend` (it measures real CPU wall clock,
//! which `all`'s figure fan-out would corrupt; `POLY_BACKEND_TOL` bounds
//! its accepted model error). A knob set to anything but a positive
//! number, an unknown or second figure, and a `--jobs` value that is not a
//! positive integer all exit with status 2.
//!
//! `--jobs N` (or the `POLY_JOBS` environment variable) sets the worker
//! thread count; the default is the machine's available parallelism.
//! Every deterministic output is byte-identical for every job count:
//! parallelism only ever spans *independent* simulations (figures, load
//! points, speculative bisection probes, cluster nodes within an
//! interval), and results are always collected in input order.
//! Design-space exploration is memoized process-wide, so each (kernel,
//! device-pair) is explored at most once per run; the timing summary
//! reports the cache's hit/miss counts alongside per-figure wall-clock
//! times.

use poly_apps::{asr, image_recognition, matrix_factorization, suite, QOS_BOUND_MS};
use poly_backend::{
    accel_pool, calibrate::calibrate, AnalyticalClient, Client as BackendClient, CpuClient,
    KernelWorkload,
};
use poly_bench::csvout::{f2, Csv};
use poly_bench::harness::{Check, Fig, Figure, Knob};
use poly_bench::System;
use poly_cluster::{
    AutoscaleConfig, BreakerConfig, Cluster, ClusterConfig, ClusterNode, ClusterRunSpec,
    RoutingPolicy,
};
use poly_core::provision::{power_split, table_iii, Architecture, Setting};
use poly_core::tco::{cost_efficiency, monthly_tco_usd, TcoParams};
use poly_core::{AppContext, NodeSetup, Optimizer, PolyRuntime, RunSpec, RuntimeMode};
use poly_device::{catalog, DeviceKind, PcieLink};
use poly_dse::{
    pipeline_candidates, DesignSpaceCache, Explorer, KernelDesignSpace, PipelineCandidate,
};
use poly_ir::{KernelGraph, KernelId, DEFAULT_TILES};
use poly_obs::{
    chrome_trace_json, latency_summary, queue_wait_summary, service_summary, Event as ObsEvent,
    MemRecorder,
};
use poly_par::par_map;
use poly_sched::Scheduler;
use poly_sim::workload::{google_trace_24h, SizeDist, TracePoint};
use poly_sim::{
    BackoffPolicy, DynamicDispatch, FaultPlan, HedgeConfig, LifecycleConfig, PipelineConfig,
    Policy, RetryPolicy,
};
use std::fmt::Write as _;
use std::time::Instant;
use Check::{Committed, Measured, Uncommitted};

/// Append a line to a figure's text (or a task's block).
macro_rules! outln {
    ($out:expr) => { writeln!($out).expect("write to string") };
    ($out:expr, $($arg:tt)*) => { writeln!($out, $($arg)*).expect("write to string") };
}

/// Append text (no newline) to a figure's text (or a task's block).
macro_rules! outp {
    ($out:expr, $($arg:tt)*) => { write!($out, $($arg)*).expect("write to string") };
}

const ARCHS: [Architecture; 3] = [
    Architecture::HomoGpu,
    Architecture::HomoFpga,
    Architecture::HeterPoly,
];

fn cache() -> &'static DesignSpaceCache {
    DesignSpaceCache::global()
}

/// Every `(index, arch)` pair for `n` items, index-major: the task list of
/// a figure that measures each item on each architecture.
fn with_archs(n: usize) -> Vec<(usize, Architecture)> {
    (0..n).flat_map(|i| ARCHS.map(|a| (i, a))).collect()
}

/// The Setting-I node of `arch` and `app`'s design spaces on it.
fn setting_i(
    arch: Architecture,
    app: &KernelGraph,
    jobs: usize,
) -> (NodeSetup, Vec<KernelDesignSpace>) {
    let setup = table_iii(Setting::I, arch);
    let explorer = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let spaces = cache().explore_graph(&explorer, app.kernels(), jobs);
    (setup, spaces)
}

/// `nodes` Setting-I Heter-Poly nodes serving `app` under a shared budget
/// of 260 W per node — tighter than the 500 W each is provisioned for, so
/// the governor has to re-split a budget that actually binds — with a
/// 40 W node floor.
fn heter_fleet(
    app: &KernelGraph,
    nodes: usize,
    routing: RoutingPolicy,
    max_backlog: usize,
    lifecycle: LifecycleConfig,
    breaker: Option<BreakerConfig>,
) -> Cluster {
    let (setup, spaces) = setting_i(Architecture::HeterPoly, app, 1);
    let config = ClusterConfig {
        bound_ms: QOS_BOUND_MS,
        routing,
        power_budget_w: 260.0 * nodes as f64,
        node_floor_w: 40.0,
        max_backlog,
        lifecycle,
        breaker,
    };
    Cluster::try_new(app, &spaces, vec![setup; nodes], config).expect("valid cluster configuration")
}

/// A figure that `all` runs, with every output committed.
const fn fig(
    name: &'static str,
    run: fn(&mut Fig),
    outputs: &'static [(&'static str, Check)],
) -> Figure {
    Figure {
        name,
        run,
        in_all: true,
        outputs,
        knobs: &[],
    }
}

/// A smoke-run size override of the scale figure.
const fn scale_knob(var: &'static str, default: f64, integer: bool) -> Knob {
    Knob {
        var,
        default,
        resizes: true,
        integer,
    }
}

/// Every figure, in the order `all` runs them.
static FIGURES: &[Figure] = &[
    fig(
        "table45",
        table45,
        &[
            ("table4_gpus.csv", Committed),
            ("table5_fpgas.csv", Committed),
        ],
    ),
    fig("table3", table3, &[("table3_settings.csv", Committed)]),
    fig("table1", table1, &[("table1_knobs.csv", Committed)]),
    fig("table2", table2, &[("table2_design_spaces.csv", Committed)]),
    fig("fig1c", fig1c, &[("fig1c_lstm_pareto.csv", Committed)]),
    fig("fig1ef", fig1ef, &[("fig1ef_asr_kernels.csv", Committed)]),
    fig("fig6", fig6, &[("fig6_schedule.csv", Committed)]),
    fig("fig1a", fig1a, &[("fig1a_asr_tail.csv", Committed)]),
    fig("fig1b", fig1b, &[("fig1b_asr_ep.csv", Committed)]),
    fig(
        "fig1d",
        fig1d,
        &[("fig1d_dynamic_efficiency.csv", Committed)],
    ),
    fig("fig7", fig7, &[("fig7_tail_latency.csv", Committed)]),
    fig("fig8", fig8, &[("fig8_max_throughput.csv", Committed)]),
    fig("fig9", fig9, &[("fig9_power_scaling.csv", Committed)]),
    fig("fig10", fig10, &[("fig10_ep.csv", Committed)]),
    fig("fig11", fig11, &[("fig11_trace.csv", Committed)]),
    fig("fig12", fig12, &[("fig12_trace_power.csv", Committed)]),
    fig("fault", fault, &[("fault_trace.csv", Committed)]),
    fig(
        "irregular",
        irregular,
        &[("irregular_trace.csv", Committed)],
    ),
    fig("pipeline", pipeline, &[("pipeline_trace.csv", Committed)]),
    fig("cluster", cluster, &[("cluster_trace.csv", Committed)]),
    fig("chaos", chaos, &[("chaos_trace.csv", Committed)]),
    fig("elastic", elastic, &[("elastic_trace.csv", Committed)]),
    fig(
        "obs",
        obs,
        &[
            // ~23 MB: compared across job counts, never committed.
            ("obs_trace.json", Uncommitted),
            ("obs_summary.csv", Committed),
            ("obs_intervals.csv", Committed),
        ],
    ),
    // Not in `all`: it times real CPU kernels, which `all`'s figure
    // fan-out would turn into a measurement of thread contention.
    Figure {
        in_all: false,
        knobs: &[Knob {
            var: "POLY_BACKEND_TOL",
            default: 10.0,
            resizes: false,
            integer: false,
        }],
        ..fig(
            "backend",
            backend,
            &[
                ("backend_model.csv", Committed),
                ("backend_calibration.csv", Measured),
            ],
        )
    },
    fig("fig13", fig13, &[("fig13_power_split.csv", Committed)]),
    fig("fig14", fig14, &[("fig14_cost_efficiency.csv", Committed)]),
    fig("ablations", ablations, &[("ablations.csv", Committed)]),
    // Not in `all`: the full-size week dwarfs every other figure.
    Figure {
        in_all: false,
        knobs: &[
            scale_knob("POLY_SCALE_NODES", 100.0, true),
            scale_knob("POLY_SCALE_DAYS", 7.0, false),
            scale_knob("POLY_SCALE_MAX_RPS", 400.0, false),
        ],
        ..fig("scale", scale, &[("scale_trace.csv", Committed)])
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(poly_bench::harness::main(FIGURES, &args));
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// Table IV/V — device specifications.
fn table45(fig: &mut Fig) {
    outln!(fig, "== Table IV: GPU platforms ==");
    let mut csv = Csv::new("name,cores,freq_mhz,peak_w,price");
    for g in catalog::all_gpus() {
        let s = g.spec().clone();
        outln!(
            fig,
            "{:22} cores={:5} f={:.0}MHz mem={:.0}GB peak={:.0}W idle={:.0}W ${:.0}",
            s.name,
            s.cores,
            s.freq_ghz * 1000.0,
            s.mem_gb,
            s.peak_power_w,
            s.idle_power_w,
            s.price_usd
        );
        csv.row()
            .s(s.name.clone())
            .s(s.cores.to_string())
            .f(s.freq_ghz * 1000.0)
            .f(s.peak_power_w)
            .f(s.price_usd);
    }
    fig.save("table4_gpus.csv", &csv);

    outln!(fig, "== Table V: FPGA platforms ==");
    let mut csv = Csv::new("name,freq_mhz,logic_cells,dsp,peak_w,price");
    for f in catalog::all_fpgas() {
        let s = f.spec().clone();
        outln!(
            fig,
            "{:38} f={:.0}MHz cells={:7} bram={:.1}MB dsp={:5} peak={:.0}W ${:.0}",
            s.name,
            s.peak_freq_mhz,
            s.logic_cells,
            s.bram_bytes as f64 / (1024.0 * 1024.0),
            s.dsp_slices,
            s.peak_power_w,
            s.price_usd
        );
        csv.row()
            .s(s.name.clone())
            .f(s.peak_freq_mhz)
            .s(s.logic_cells.to_string())
            .s(s.dsp_slices.to_string())
            .f(s.peak_power_w)
            .f(s.price_usd);
    }
    fig.save("table5_fpgas.csv", &csv);
}

/// Table III — the three hardware settings.
fn table3(fig: &mut Fig) {
    outln!(
        fig,
        "== Table III: heterogeneous system settings (500 W cap) =="
    );
    let mut csv = Csv::new("setting,arch,gpus,fpgas");
    for setting in Setting::ALL {
        for arch in ARCHS {
            let n = table_iii(setting, arch);
            outln!(
                fig,
                "{:12} {:11} {} x GPU ({}), {} x FPGA ({})",
                setting.name(),
                arch.name(),
                n.gpus(),
                n.gpu.spec().name,
                n.fpgas(),
                n.fpga.spec().name
            );
            csv.row()
                .s(setting.name())
                .s(arch.name())
                .n(n.gpus())
                .n(n.fpgas());
        }
    }
    fig.save("table3_settings.csv", &csv);
}

/// Table I — annotation methods and per-platform optimization knobs.
fn table1(fig: &mut Fig) {
    outln!(
        fig,
        "== Table I: parallel patterns, annotations, optimization knobs =="
    );
    let mut csv = Csv::new("pattern,annotation,gpu_knobs,fpga_knobs");
    for r in poly_dse::knob_table() {
        outln!(
            fig,
            "{:9} {:38} GPU: {:60} FPGA: {}",
            r.pattern,
            r.annotation,
            r.gpu_knobs.join(", "),
            r.fpga_knobs.join(", ")
        );
        csv.row()
            .s(r.pattern)
            .s(r.annotation)
            .s(r.gpu_knobs.join("+"))
            .s(r.fpga_knobs.join("+"));
    }
    fig.save("table1_knobs.csv", &csv);
}

/// Table II — benchmarks, kernels, patterns, and design-space sizes.
fn table2(fig: &mut Fig) {
    outln!(
        fig,
        "== Table II: benchmarks and design spaces (Setting-I devices) =="
    );
    let explorer = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
    let mut csv = Csv::new("app,kernel,patterns,gpu_designs,fpga_designs");
    for app in suite() {
        for kernel in app.kernels() {
            let space = cache().explore(&explorer, kernel);
            let patterns: Vec<&str> = kernel.patterns().map(|p| p.kind().name()).collect();
            outln!(
                fig,
                "{:4} {:22} {:48} designs: gpu={:4} fpga={:4} (pareto {:2}/{:2})",
                app.name(),
                kernel.name(),
                patterns.join(","),
                space.gpu_explored,
                space.fpga_explored,
                space.gpu.len(),
                space.fpga.len()
            );
            csv.row()
                .s(app.name())
                .s(kernel.name())
                .s(patterns.join("+"))
                .n(space.gpu_explored)
                .n(space.fpga_explored);
        }
    }
    fig.save("table2_design_spaces.csv", &csv);
}

// ---------------------------------------------------------------------------
// Motivation (Fig. 1) and scheduling example (Fig. 6)
// ---------------------------------------------------------------------------

/// Fig. 1(c) — the Pareto design space of the LSTM kernel.
fn fig1c(fig: &mut Fig) {
    outln!(
        fig,
        "== Fig. 1(c): LSTM kernel Pareto frontier (latency vs energy efficiency) =="
    );
    let app = asr();
    let lstm = app.kernel(app.id_of("k1_lstm_fwd").expect("k1 exists"));
    let explorer = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
    let space = cache().explore(&explorer, lstm);
    let mut csv = Csv::new("platform,r,latency_ms,power_w,req_per_joule");
    for (platform, points) in [("gpu", &space.gpu), ("fpga", &space.fpga)] {
        for p in points {
            outln!(
                fig,
                "{platform:4} r={:2} lat={:8.2}ms  P={:7.2}W  req/J={:8.3}  {}",
                p.index,
                p.latency_ms(),
                p.power_w(),
                p.estimate.requests_per_joule(),
                p.tuning.key()
            );
            csv.row()
                .s(platform)
                .n(p.index)
                .f(p.latency_ms())
                .f(p.power_w())
                .f(p.estimate.requests_per_joule());
        }
    }
    fig.save("fig1c_lstm_pareto.csv", &csv);
}

/// Fig. 1(e,f) — per-kernel energy and latency of the most energy
/// efficient designs per platform.
fn fig1ef(fig: &mut Fig) {
    outln!(
        fig,
        "== Fig. 1(e,f): ASR kernel-by-kernel energy and latency =="
    );
    let app = asr();
    let explorer = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
    let mut csv = Csv::new("kernel,platform,latency_ms,energy_mj,dynamic_mj");
    for kernel in app.kernels() {
        let space = cache().explore(&explorer, kernel);
        for kind in [DeviceKind::Gpu, DeviceKind::Fpga] {
            let point = space
                .most_efficient_within(kind, QOS_BOUND_MS * 0.75)
                .or_else(|| space.min_latency(kind))
                .expect("platform has designs");
            outln!(
                fig,
                "{:14} {:4} lat={:7.2}ms energy={:8.1}mJ dyn={:8.1}mJ",
                kernel.name(),
                kind.name(),
                point.latency_ms(),
                point.energy_mj(),
                point.dynamic_energy_mj()
            );
            csv.row()
                .s(kernel.name())
                .s(kind.name())
                .f(point.latency_ms())
                .f(point.energy_mj())
                .f(point.dynamic_energy_mj());
        }
    }
    fig.save("fig1ef_asr_kernels.csv", &csv);
}

/// Fig. 6 — the two-step schedule of the ASR request.
fn fig6(fig: &mut Fig) {
    outln!(
        fig,
        "== Fig. 6: two-step runtime schedule of ASR (1 GPU + 5 FPGA) =="
    );
    let app = asr();
    let (setup, spaces) = setting_i(Architecture::HeterPoly, &app, fig.jobs());
    let sched = Scheduler::new(PcieLink::gen3_x16());

    let step1 = sched
        .plan_latency(&app, &spaces, &setup.pool)
        .expect("schedulable");
    outln!(
        fig,
        "-- Step 1 (latency optimization): makespan {:.1} ms",
        step1.makespan_ms
    );
    let mut csv = Csv::new("step,kernel,impl,platform,start_ms,end_ms");
    for a in &step1.assignments {
        outln!(
            fig,
            "  {}^{} -> {} [{}..{}ms]",
            app.kernel(a.kernel).name(),
            a.impl_index,
            a.kind,
            a.start_ms.round(),
            a.end_ms.round()
        );
        csv.row()
            .s("step1")
            .s(app.kernel(a.kernel).name())
            .n(a.impl_index)
            .s(a.kind.name())
            .f(a.start_ms)
            .f(a.end_ms);
    }
    let step2 = sched
        .plan(&app, &spaces, &setup.pool, QOS_BOUND_MS)
        .expect("schedulable");
    outln!(
        fig,
        "-- Step 2 (energy optimization): makespan {:.1} ms (bound {QOS_BOUND_MS}), dynamic energy {:.0} -> {:.0} mJ",
        step2.makespan_ms, step1.dynamic_mj, step2.dynamic_mj
    );
    for a in &step2.assignments {
        outln!(
            fig,
            "  {}^{} -> {} [{}..{}ms]",
            app.kernel(a.kernel).name(),
            a.impl_index,
            a.kind,
            a.start_ms.round(),
            a.end_ms.round()
        );
        csv.row()
            .s("step2")
            .s(app.kernel(a.kernel).name())
            .n(a.impl_index)
            .s(a.kind.name())
            .f(a.start_ms)
            .f(a.end_ms);
    }
    // Measured counterpart: execute one request under the Step-2 policy in
    // the discrete-event simulator and print the observed Gantt chart.
    let policy = Policy::from_plan(&step2, &spaces, &setup.gpu);
    let mut sim =
        poly_sim::Simulator::new(app.clone(), &setup.pool, policy, setup.sim_config.clone());
    let rec = MemRecorder::new();
    sim.set_recorder(Some(Box::new(rec.clone())));
    sim.enqueue_arrivals(&[0.0]);
    sim.drain();
    outln!(
        fig,
        "-- Simulated execution of one request (measured Gantt):"
    );
    for sample in rec.samples() {
        let ObsEvent::ExecStart {
            device,
            device_kind,
            kernel,
            impl_index,
            batch,
            reconfig_ms,
            exec_ms,
            ..
        } = sample.event
        else {
            continue;
        };
        let (start_ms, end_ms) = (sample.t_ms, sample.t_ms + reconfig_ms + exec_ms);
        let name = app.kernel(KernelId(kernel)).name();
        outln!(
            fig,
            "  {name}^{impl_index} on {device_kind} d{device}: {start_ms:.1}..{end_ms:.1} ms (batch {batch}, reconfig {reconfig_ms:.0} ms)"
        );
        csv.row()
            .s("simulated")
            .s(name)
            .n(impl_index)
            .s(device_kind)
            .f(start_ms)
            .f(end_ms);
    }
    fig.save("fig6_schedule.csv", &csv);
}

/// Fig. 1(a) — ASR tail latency vs request throughput, three systems.
fn fig1a(fig: &mut Fig) {
    outln!(fig, "== Fig. 1(a): ASR tail latency vs RPS ==");
    let app = asr();
    let jobs = fig.jobs();
    // One task per architecture; each task's measurement sequence is the
    // same as the serial code path, so results match for every job count.
    let header = "arch,rps,p99_ms,power_w";
    let (csv, _) = fig.fan_out(ARCHS, header, |arch, block, csv| {
        let mut sys = System::new(&app, Setting::I, arch, QOS_BOUND_MS);
        let max = sys.max_rps_jobs(jobs);
        outln!(
            block,
            "{:11} max RPS under {QOS_BOUND_MS} ms = {max:.1}",
            sys.name
        );
        for i in 1..=10 {
            let rps = max * 1.2 * f64::from(i) / 10.0;
            let r = sys.measure(rps);
            outln!(block, "  rps={rps:6.1} p99={:8.1}ms", r.latency.p99());
            csv.row()
                .s(sys.name)
                .f(rps)
                .f(r.latency.p99())
                .f(r.avg_power_w);
        }
    });
    fig.save("fig1a_asr_tail.csv", &csv);
}

/// Fig. 1(b) — ASR energy-proportionality curves.
fn fig1b(fig: &mut Fig) {
    outln!(fig, "== Fig. 1(b): ASR energy proportionality ==");
    let app = asr();
    let jobs = fig.jobs();
    let (csv, _) = fig.fan_out(ARCHS, "arch,load,power_w", |arch, block, csv| {
        let mut sys = System::new(&app, Setting::I, arch, QOS_BOUND_MS);
        let max = sys.max_rps_jobs(jobs);
        let curve = sys.ep_curve(max, 6);
        outln!(block, "{:11} EP = {:.2}", sys.name, curve.ep());
        for p in curve.points() {
            csv.row().s(sys.name).f(p.load).f(p.power_w);
        }
        csv.row().s(sys.name).s("EP").f(curve.ep());
    });
    fig.save("fig1b_asr_ep.csv", &csv);
}

/// Fig. 1(d) — energy efficiency vs utilization: Poly's dynamic policy
/// against the two fixed extreme implementations.
fn fig1d(fig: &mut Fig) {
    outln!(
        fig,
        "== Fig. 1(d): energy efficiency vs utilization (ASR, Heter pool) =="
    );
    let app = asr();
    let mut poly = System::new(&app, Setting::I, Architecture::HeterPoly, QOS_BOUND_MS);
    let max = poly.max_rps();

    // Fixed policies: min-latency and most-efficient (the prior art's two
    // hard choices, Section II-B).
    let (setup, spaces) = setting_i(Architecture::HeterPoly, &app, fig.jobs());
    let sched = Scheduler::default();
    let fast_plan = sched
        .plan_latency(&app, &spaces, &setup.pool)
        .expect("plan");
    let fast = Policy::from_plan(&fast_plan, &spaces, &setup.gpu);
    let eff_plan = sched
        .plan(&app, &spaces, &setup.pool, QOS_BOUND_MS)
        .expect("plan");
    let eff = Policy::from_plan(&eff_plan, &spaces, &setup.gpu);

    // The fixed-policy runs are pure, so they fan out; the Poly runs stay
    // serial because each feeds the optimizer's model.
    let loads: Vec<f64> = (1..=8).map(|i| f64::from(i) / 8.0).collect();
    let fixed = par_map(fig.jobs(), &loads, |_, &load| {
        let rps = max * load;
        let run = |policy: &Policy| {
            poly_sim::steady_state(
                &app,
                &setup.pool,
                policy,
                &setup.sim_config,
                rps,
                5_000.0,
                20_000.0,
                42,
            )
        };
        (run(&fast), run(&eff))
    });

    let rpj = |r: &poly_sim::SimReport| {
        if r.energy_j > 0.0 {
            r.completed as f64 / r.energy_j
        } else {
            0.0
        }
    };
    let mut csv = Csv::new("load,poly_req_per_j,fixed_fast_req_per_j,fixed_eff_req_per_j");
    for (&load, (fixed_fast, fixed_eff)) in loads.iter().zip(&fixed) {
        let p = poly.measure(max * load);
        outln!(
            fig,
            "load={load:4.2} req/J: poly={:6.3} fixed-fast={:6.3} fixed-eff={:6.3}",
            rpj(&p),
            rpj(fixed_fast),
            rpj(fixed_eff)
        );
        csv.row()
            .f(load)
            .f(rpj(&p))
            .f(rpj(fixed_fast))
            .f(rpj(fixed_eff));
    }
    fig.save("fig1d_dynamic_efficiency.csv", &csv);
}

// ---------------------------------------------------------------------------
// Static-load evaluation (Figs. 7–10)
// ---------------------------------------------------------------------------

/// Fig. 7 — tail latency vs load for all six applications.
fn fig7(fig: &mut Fig) {
    outln!(fig, "== Fig. 7: tail latency vs load, six applications ==");
    let apps = suite();
    // Phase 1: capacity search for every (app, arch) pair concurrently.
    let pairs = with_archs(apps.len());
    let prepped = par_map(fig.jobs(), &pairs, |_, &(ai, arch)| {
        let mut sys = System::new(&apps[ai], Setting::I, arch, QOS_BOUND_MS);
        let max = sys.max_rps();
        (sys, max)
    });
    // Phase 2 (needs each app's best capacity): ten-point sweeps, one task
    // per (app, arch); each task's measurements run in request order so
    // Poly's feedback sequence is preserved. The first arch of each app
    // heads its app's group.
    let bests: Vec<f64> = (0..apps.len())
        .map(|ai| {
            prepped[ai * ARCHS.len()..(ai + 1) * ARCHS.len()]
                .iter()
                .fold(0.0_f64, |acc, &(_, m)| acc.max(m))
                .max(0.5)
        })
        .collect();
    let header = "app,arch,load,rps,p99_ms";
    let tasks = prepped.into_iter().zip(&pairs);
    let (csv, _) = fig.fan_out(
        tasks,
        header,
        |((mut sys, own_max), &(ai, arch)), block, csv| {
            let (app, best) = (apps[ai].name(), bests[ai]);
            if arch == ARCHS[0] {
                outln!(block, "-- {app} (100% load = {best:.1} RPS)");
            }
            outp!(block, "  {:11}(max {own_max:6.1}) p99:", sys.name);
            for i in 1..=10 {
                let rps = best * f64::from(i) / 10.0;
                let r = sys.measure(rps);
                outp!(block, " {:7.0}", r.latency.p99());
                csv.row()
                    .s(app)
                    .s(sys.name)
                    .f(f64::from(i) / 10.0)
                    .f(rps)
                    .f(r.latency.p99());
            }
            outln!(block);
        },
    );
    fig.save("fig7_tail_latency.csv", &csv);
}

/// Fig. 8 — maximum system throughput (normalized), six apps + averages.
fn fig8(fig: &mut Fig) {
    outln!(
        fig,
        "== Fig. 8: maximum throughput under QoS (normalized to best) =="
    );
    let apps = suite();
    let pairs = with_archs(apps.len());
    let jobs = fig.jobs();
    let maxes_flat = par_map(jobs, &pairs, |_, &(ai, arch)| {
        System::new(&apps[ai], Setting::I, arch, QOS_BOUND_MS).max_rps_jobs(jobs)
    });
    let mut csv = Csv::new("app,arch,max_rps,normalized_pct");
    let mut norm: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (ai, app) in apps.iter().enumerate() {
        let maxes = &maxes_flat[ai * ARCHS.len()..(ai + 1) * ARCHS.len()];
        let best = maxes.iter().fold(0.0_f64, |a, &b| a.max(b)).max(1e-9);
        outp!(fig, "{:4}", app.name());
        for (i, (&m, arch)) in maxes.iter().zip(ARCHS).enumerate() {
            let pct = m / best;
            norm[i].push(pct.max(1e-3));
            outp!(fig, "  {}={:5.1}rps ({:3.0}%)", arch.name(), m, pct * 100.0);
            csv.row().s(app.name()).s(arch.name()).f(m).f(pct * 100.0);
        }
        outln!(fig);
    }
    for (i, arch) in ARCHS.iter().enumerate() {
        let avg = norm[i].iter().sum::<f64>() / norm[i].len() as f64;
        let geo = (norm[i].iter().map(|x| x.ln()).sum::<f64>() / norm[i].len() as f64).exp();
        outln!(
            fig,
            "{:11} average={:4.0}% geomean={:4.0}%",
            arch.name(),
            avg * 100.0,
            geo * 100.0
        );
        csv.row()
            .s("summary")
            .s(arch.name())
            .f(avg * 100.0)
            .f(geo * 100.0);
    }
    fig.save("fig8_max_throughput.csv", &csv);
}

/// Fig. 9 — power scaling trends for ASR, IR, FQT.
fn fig9(fig: &mut Fig) {
    outln!(fig, "== Fig. 9: power scaling trends (ASR, IR, FQT) ==");
    let names = ["asr", "ir", "fqt"];
    let pairs = with_archs(names.len());
    let jobs = fig.jobs();
    let curves = par_map(jobs, &pairs, |_, &(ni, arch)| {
        let app = poly_apps::by_name(names[ni]).expect("known app");
        let mut sys = System::new(&app, Setting::I, arch, QOS_BOUND_MS);
        let max = sys.max_rps_jobs(jobs);
        (sys.name, sys.ep_curve(max, 6))
    });
    let mut csv = Csv::new("app,arch,load,power_w");
    for (ni, name) in names.iter().enumerate() {
        outln!(fig, "-- {name}");
        for (sys_name, curve) in &curves[ni * ARCHS.len()..(ni + 1) * ARCHS.len()] {
            outp!(fig, "  {sys_name:11}");
            for p in curve.points() {
                outp!(fig, " {:4.0}W@{:3.0}%", p.power_w, p.load * 100.0);
                csv.row().s(*name).s(*sys_name).f(p.load).f(p.power_w);
            }
            outln!(fig, "  (peak {:.0}W)", curve.peak_power_w());
        }
    }
    fig.save("fig9_power_scaling.csv", &csv);
}

/// Fig. 10 — energy proportionality for all six applications.
fn fig10(fig: &mut Fig) {
    outln!(
        fig,
        "== Fig. 10: energy proportionality, six applications =="
    );
    let apps = suite();
    let pairs = with_archs(apps.len());
    let jobs = fig.jobs();
    let eps = par_map(jobs, &pairs, |_, &(ai, arch)| {
        let mut sys = System::new(&apps[ai], Setting::I, arch, QOS_BOUND_MS);
        let max = sys.max_rps_jobs(jobs);
        sys.ep_curve(max, 6).ep()
    });
    let mut csv = Csv::new("app,arch,ep");
    let mut sums = [0.0_f64; 3];
    for (ai, app) in apps.iter().enumerate() {
        outp!(fig, "{:4}", app.name());
        for (i, arch) in ARCHS.iter().enumerate() {
            let ep = eps[ai * ARCHS.len() + i];
            sums[i] += ep;
            outp!(fig, "  {}={ep:5.2}", arch.name());
            csv.row().s(app.name()).s(arch.name()).f(ep);
        }
        outln!(fig);
    }
    for (i, arch) in ARCHS.iter().enumerate() {
        outln!(fig, "{:11} mean EP = {:.2}", arch.name(), sums[i] / 6.0);
        csv.row().s("mean").s(arch.name()).f(sums[i] / 6.0);
    }
    fig.save("fig10_ep.csv", &csv);
}

// ---------------------------------------------------------------------------
// Trace-driven evaluation (Figs. 11–12, QoS analysis)
// ---------------------------------------------------------------------------

/// Trace replay interval (simulated ms per trace point). The trace has 288
/// diurnal points (sampled every 5 minutes of the nominal day); replaying
/// each as 10 s keeps the experiment tractable while leaving every
/// interval >> the latency scale.
const TRACE_INTERVAL_MS: f64 = 10_000.0;

/// The 288-point diurnal trace, re-timed for replay at
/// [`TRACE_INTERVAL_MS`] per point.
fn replay_trace() -> Vec<TracePoint> {
    google_trace_24h(300_000.0, 2011)
        .into_iter()
        .enumerate()
        .map(|(i, p)| TracePoint {
            start_ms: i as f64 * TRACE_INTERVAL_MS,
            utilization: p.utilization,
        })
        .collect()
}

/// Points `range` of [`replay_trace`], re-timed to start at zero.
fn trace_window(range: std::ops::Range<usize>) -> Vec<TracePoint> {
    replay_trace()[range]
        .iter()
        .enumerate()
        .map(|(i, p)| TracePoint {
            start_ms: i as f64 * TRACE_INTERVAL_MS,
            utilization: p.utilization,
        })
        .collect()
}

/// Fig. 11 — the synthesized 24-hour utilization trace.
fn fig11(fig: &mut Fig) {
    outln!(fig, "== Fig. 11: 24-hour server utilization trace ==");
    let trace = google_trace_24h(300_000.0, 2011);
    let mut csv = Csv::new("hour,utilization");
    for (i, p) in trace.iter().enumerate() {
        if i % 12 == 0 {
            outln!(
                fig,
                "hour {:5.1}  util {:4.2}",
                i as f64 / 12.0,
                p.utilization
            );
        }
        csv.row().f(i as f64 / 12.0).f(p.utilization);
    }
    fig.save("fig11_trace.csv", &csv);
}

/// Fig. 12 + Section VI-C — 24-hour power traces, power savings, QoS
/// violations, and model prediction error.
fn fig12(fig: &mut Fig) {
    outln!(
        fig,
        "== Fig. 12: trace-driven power comparison (ASR, Setting-I) =="
    );
    let app = asr();
    let trace = replay_trace();
    // The paper "directly use[s] the same utilization value" for all three
    // platforms: each system serves util x its own sustainable capacity.
    let jobs = fig.jobs();
    let own_max = par_map(jobs, &ARCHS, |_, &a| {
        System::new(&app, Setting::I, a, QOS_BOUND_MS)
            .max_rps_jobs(jobs)
            .max(1.0)
    });
    // Pass 1 (the paper's method): same *utilization* — each platform
    // serves util x its own capacity. Pass 2: same *offered load* — the
    // largest load every platform sustains — isolating the power cost of
    // overprovisioned idle capacity. The six replays are independent
    // deterministic simulations, so they fan out.
    let common = own_max.iter().fold(f64::INFINITY, |a, &b| a.min(b)) * 0.9;
    let combos = (0..2).flat_map(|pass| (0..ARCHS.len()).map(move |ai| (pass, ai)));
    let header = "pass,arch,hour,utilization,power_w,p99_ms";
    let (csv, summary) = fig.fan_out(combos, header, |(pass, ai), block, csv| {
        let arch = ARCHS[ai];
        let label = if pass == 0 {
            "same-utilization"
        } else {
            "same-load"
        };
        if ai == 0 {
            outln!(block, "-- pass: {label}");
        }
        let max_rps = if pass == 0 { own_max[ai] * 0.9 } else { common };
        let (setup, spaces) = setting_i(arch, &app, 1);
        let mode = match arch {
            Architecture::HeterPoly => RuntimeMode::Poly,
            _ => {
                let policy = Optimizer::new().max_capacity_policy(
                    &app,
                    &spaces,
                    &setup.pool,
                    &setup.gpu,
                    QOS_BOUND_MS,
                );
                RuntimeMode::Static(policy)
            }
        };
        let mut rt = PolyRuntime::new(AppContext::new(app.clone(), spaces, setup, QOS_BOUND_MS));
        let report = rt.run(
            &RunSpec::new(&trace, TRACE_INTERVAL_MS, max_rps)
                .mode(mode)
                .seed(2011),
        );
        let served: usize = report.intervals.iter().map(|r| r.completed).sum();
        outln!(
            block,
            "{:11} (trace peak {max_rps:5.1} RPS) mean power {:6.1} W  {:6.2} J/request  violations {:5.2}%  model err {:4.1}%",
            arch.name(),
            report.mean_power_w,
            report.energy_j / served.max(1) as f64,
            report.violation_ratio * 100.0,
            report.prediction_error * 100.0
        );
        for (i, r) in report.intervals.iter().enumerate() {
            if i % 4 == 0 {
                csv.row()
                    .s(label)
                    .s(arch.name())
                    .f(i as f64 / 12.0)
                    .f(r.utilization)
                    .f(r.avg_power_w)
                    .f(r.p99_ms);
            }
        }
        (pass, arch.name(), report.mean_power_w)
    });
    if let (Some(gpu), Some(het)) = (
        summary.iter().find(|(p, n, _)| *p == 1 && *n == "Homo-GPU"),
        summary
            .iter()
            .find(|(p, n, _)| *p == 1 && *n == "Heter-Poly"),
    ) {
        outln!(
            fig,
            "At equal offered load, Heter-Poly saves {:.0}% power vs Homo-GPU over the trace",
            (1.0 - het.2 / gpu.2) * 100.0
        );
    }
    fig.save("fig12_trace_power.csv", &csv);
}

/// Failure trace (DESIGN.md §7) — graceful degradation under injected
/// device faults: a GPU fail-stop plus an FPGA slowdown over the 24-hour
/// trace, Poly's degraded-pool re-planning vs a static latency plan.
fn fault(fig: &mut Fig) {
    outln!(
        fig,
        "== Failure trace: fault injection and graceful degradation (ASR, Setting-I Heter) =="
    );
    let app = asr();
    let trace = replay_trace();
    // One trace hour is 12 points at TRACE_INTERVAL_MS each.
    let hour_ms = |h: f64| h * 12.0 * TRACE_INTERVAL_MS;
    // Device 0 is the GPU, devices 1..=5 the FPGAs (Pool::heterogeneous
    // order). The GPU fails outright for four trace hours; later one FPGA
    // runs at half speed for three hours (e.g. thermal throttling).
    let faults = FaultPlan::new()
        .fail_stop(hour_ms(6.0), 0)
        .recover(hour_ms(10.0), 0)
        .slow_down(hour_ms(16.0), 1, 2.0)
        .recover(hour_ms(19.0), 1);
    outln!(
        fig,
        "faults: GPU fail-stop 06:00-10:00, FPGA0 2x slowdown 16:00-19:00"
    );
    const MAX_RPS: f64 = 20.0;
    let modes = ["Heter-Poly", "Static-latency"];
    // The two replays are independent deterministic simulations.
    let header = "mode,hour,utilization,p99_ms,power_w,healthy,retried,violations,completed";
    let (csv, violations) = fig.fan_out(modes, header, |name, block, csv| {
        let (setup, spaces) = setting_i(Architecture::HeterPoly, &app, 1);
        let mode = if name == "Heter-Poly" {
            RuntimeMode::Poly
        } else {
            // The latency-optimal plan pins two ASR kernels to the GPU and
            // never re-plans, so the outage hits it head-on.
            let plan = Scheduler::default()
                .plan_latency(&app, &spaces, &setup.pool)
                .expect("latency plan");
            RuntimeMode::Static(Policy::from_plan(&plan, &spaces, &setup.gpu))
        };
        let mut rt = PolyRuntime::new(AppContext::new(app.clone(), spaces, setup, QOS_BOUND_MS));
        let report = rt.run(
            &RunSpec::new(&trace, TRACE_INTERVAL_MS, MAX_RPS)
                .mode(mode)
                .seed(2011)
                .faults(faults.clone()),
        );
        let violations: usize = report.intervals.iter().map(|r| r.violations).sum();
        let completed: usize = report.intervals.iter().map(|r| r.completed).sum();
        outln!(
            block,
            "{name:14} mean power {:6.1} W  completed {completed:6}  violations {violations:5} ({:5.2}%)  retried {:3}  recovery {:7.0} ms",
            report.mean_power_w,
            report.violation_ratio * 100.0,
            report.retry.device_retries,
            report.mean_recovery_ms
        );
        for (i, r) in report.intervals.iter().enumerate() {
            if i % 4 == 0 {
                csv.row()
                    .s(name)
                    .f(i as f64 / 12.0)
                    .f(r.utilization)
                    .f(r.p99_ms)
                    .f(r.avg_power_w)
                    .n(r.healthy_devices)
                    .n(r.retried)
                    .n(r.violations)
                    .n(r.completed);
            }
        }
        violations
    });
    outln!(
        fig,
        "violation ratio under faults: Poly {} vs Static {} (Poly re-plans onto survivors; Static strands its GPU kernels)",
        violations[0],
        violations[1]
    );
    fig.save("fault_trace.csv", &csv);
}

/// Irregular-input trace (DESIGN.md §15) — heavy-tailed per-request input
/// sizes over the 24-hour trace: the purely static interval plan vs the
/// hybrid layer that adds data-aware per-request dispatch (top-k chooser
/// + work stealing) on top of the *same* interval planning.
fn irregular(fig: &mut Fig) {
    outln!(
        fig,
        "== Irregular trace: heavy-tailed input sizes, static plan vs hybrid dynamic dispatch (ASR, Setting-I Heter) =="
    );
    let app = asr();
    let trace = replay_trace();
    let sizes = SizeDist::heavy_tail();
    outln!(
        fig,
        "sizes: lognormal, median 0.7x nominal, sigma 0.9, cap 8x (mean {:.2}x)",
        sizes.mean()
    );
    const MAX_RPS: f64 = 20.0;
    let modes = ["Interval-static", "Hybrid-dynamic"];
    // The two replays are independent deterministic simulations.
    let header = "mode,hour,utilization,p99_ms,power_w,violations,completed";
    let (csv, runs) = fig.fan_out(modes, header, |name, block, csv| {
        let (setup, spaces) = setting_i(Architecture::HeterPoly, &app, 1);
        let mut rt = PolyRuntime::new(AppContext::new(app.clone(), spaces, setup, QOS_BOUND_MS));
        let mut spec = RunSpec::new(&trace, TRACE_INTERVAL_MS, MAX_RPS)
            .seed(2011)
            .sizes(sizes);
        if name == "Hybrid-dynamic" {
            spec = spec.dynamic(DynamicDispatch::default());
        }
        let report = rt.run(&spec);
        let violations: usize = report.intervals.iter().map(|r| r.violations).sum();
        let completed: usize = report.intervals.iter().map(|r| r.completed).sum();
        outln!(
            block,
            "{name:15} mean power {:6.1} W  energy {:8.0} J  completed {completed:6}  violations {violations:5} ({:5.2}%)  steals {:4}  timed out {:4}",
            report.mean_power_w,
            report.energy_j,
            report.violation_ratio * 100.0,
            report.retry.steals,
            report.timed_out,
        );
        for (i, r) in report.intervals.iter().enumerate() {
            if i % 4 == 0 {
                csv.row()
                    .s(name)
                    .f(i as f64 / 12.0)
                    .f(r.utilization)
                    .f(r.p99_ms)
                    .f(r.avg_power_w)
                    .n(r.violations)
                    .n(r.completed);
            }
        }
        (violations, report.energy_j)
    });
    let ((static_v, static_j), (hybrid_v, hybrid_j)) = (runs[0], runs[1]);
    outln!(
        fig,
        "under heavy-tailed inputs the hybrid layer cuts violations {static_v} -> {hybrid_v} at {:.1}% of the static plan's energy",
        hybrid_j / static_j * 100.0
    );
    fig.save("irregular_trace.csv", &csv);
}

/// Pipeline (DESIGN.md §18) — cross-kernel pipelined streaming: the DSE's
/// channel-depth candidates priced and measured on the Heter-Poly node.
///
/// For each application, every [`pipeline_candidates`] variant (barrier
/// plus power-of-two channel depths) is costed (buffer occupancy against
/// the FPGA's fusion capacity, PCIe spill on overflow) and measured:
/// max RPS under QoS and p99 at a fixed probe load. The `depth 0` row is
/// exactly the fig7/fig8 headline configuration — the engine's barrier
/// path — so the deltas in this figure are the frontier widening those
/// headline numbers stand to gain. The acceptance assert below pins that
/// at least one app's frontier strictly widens.
fn pipeline(fig: &mut Fig) {
    outln!(
        fig,
        "== Pipeline: cross-kernel pipelined streaming, channel-depth frontier (Setting-I Heter) =="
    );
    let setup = table_iii(Setting::I, Architecture::HeterPoly);
    // Channel buffers compete with pattern fusion for the same on-chip
    // storage — price them against the explorer's FPGA fusion capacity.
    let capacity = setup.fpga.spec().bram_bytes / 2;
    let apps = [asr(), image_recognition()];
    // Fixed probe load for the latency column: comfortably inside every
    // variant's capacity so the p99 delta isolates the pipelining effect.
    const PROBE_RPS: f64 = 8.0;
    let tasks: Vec<(usize, PipelineCandidate)> = apps
        .iter()
        .enumerate()
        .flat_map(|(ai, app)| {
            pipeline_candidates(app, capacity, &setup.sim_config.pcie, DEFAULT_TILES)
                .into_iter()
                .map(move |c| (ai, c))
        })
        .collect();
    // One deterministic system per (app, depth) variant; results collect
    // in input order, so the CSV is byte-identical for every job count.
    let measured = par_map(fig.jobs(), &tasks, |_, (ai, cand)| {
        let mut s = setup.clone();
        s.sim_config.pipeline = PipelineConfig {
            depth: cand.depth,
            tiles: cand.tiles,
        };
        let mut sys = System::with_setup(&apps[*ai], s, QOS_BOUND_MS);
        let max_rps = sys.max_rps();
        let p99 = sys.measure(PROBE_RPS).latency.p99();
        (max_rps, p99)
    });
    let mut csv = Csv::new("app,depth,tiles,buffer_bytes,spill_bytes,max_rps,p99_at_probe_ms");
    let mut widened = false;
    for (ai, app) in apps.iter().enumerate() {
        let rows: Vec<(&PipelineCandidate, (f64, f64))> = tasks
            .iter()
            .zip(&measured)
            .filter(|((ti, _), _)| *ti == ai)
            .map(|((_, c), &m)| (c, m))
            .collect();
        let (barrier_rps, barrier_p99) = rows[0].1;
        outln!(fig, "-- {} (probe {PROBE_RPS:.0} RPS)", app.name());
        for (cand, (max_rps, p99)) in &rows {
            outln!(
                fig,
                "  depth {:2}  buffer {:8} B  spill {:7} B  max {:6.1} RPS ({:+5.1}%)  p99 {:6.1} ms ({:+5.1}%)",
                cand.depth,
                cand.buffer_bytes,
                cand.spill_bytes,
                max_rps,
                (max_rps / barrier_rps - 1.0) * 100.0,
                p99,
                (p99 / barrier_p99 - 1.0) * 100.0,
            );
            csv.row()
                .s(app.name())
                .n(cand.depth as usize)
                .n(cand.tiles as usize)
                .n(cand.buffer_bytes as usize)
                .n(cand.spill_bytes as usize)
                .f(*max_rps)
                .f(*p99);
        }
        let best = rows
            .iter()
            .skip(1)
            .fold(0.0_f64, |acc, (_, (m, _))| acc.max(*m));
        let best_p99 = rows
            .iter()
            .skip(1)
            .fold(f64::INFINITY, |acc, (_, (_, p))| acc.min(*p));
        if best > barrier_rps || best_p99 < barrier_p99 {
            widened = true;
        }
        outln!(
            fig,
            "  best pipelined: max {:.1} RPS vs barrier {:.1} ({:+.1}%), p99 {:.1} ms vs {:.1}",
            best,
            barrier_rps,
            (best / barrier_rps - 1.0) * 100.0,
            best_p99,
            barrier_p99,
        );
    }
    // Acceptance criterion: pipelined schedules strictly widen at least
    // one app's Pareto frontier over the barrier baseline.
    assert!(
        widened,
        "no pipelined depth widened any app's frontier (neither max RPS up nor p99 down)"
    );
    fig.save("pipeline_trace.csv", &csv);
}

/// Cluster trace (DESIGN.md §11) — four routing/admission policies over
/// the 24-hour trace on a 4-node Setting-I Heter fleet with a shared
/// power budget and a node-level fail-stop at the morning ramp.
fn cluster(fig: &mut Fig) {
    outln!(
        fig,
        "== Cluster: routing policies, 24 h trace (4 x Setting-I Heter nodes, shared budget) =="
    );
    let app = asr();
    let trace = replay_trace();
    let hour_ms = |h: f64| h * 12.0 * TRACE_INTERVAL_MS;
    const NODES: usize = 4;
    // 60 RPS/node at trace peak vs ~75 RPS single-node capacity
    // (fig1a): the healthy fleet absorbs it, but a down node's share
    // pushes the survivors to 80 RPS each — past what any policy can
    // serve inside the bound.
    const CLUSTER_MAX_RPS: f64 = 240.0;
    // Node-level fault domain: node 1 (whole node, all six devices)
    // fail-stops for four hours across the diurnal peak (the trace tops
    // out around hour 13-15), so the survivors are genuinely overloaded
    // and the admission policies separate.
    let node_faults = FaultPlan::new()
        .fail_stop(hour_ms(12.0), 1)
        .recover(hour_ms(16.0), 1);
    outln!(
        fig,
        "fault: node 1 fail-stop 12:00-16:00 (whole node, peak hours)"
    );
    // The four replays are independent deterministic simulations.
    let jobs = fig.jobs();
    let header = "policy,hour,utilization,p99_ms,power_w,nodes_up,shed,redistributed,violations,completed,skew";
    let (csv, _) = fig.fan_out(RoutingPolicy::ALL, header, |routing, block, csv| {
        let lifecycle = LifecycleConfig::default();
        let mut cl = heter_fleet(&app, NODES, routing, 512, lifecycle, None);
        // Per-interval node stepping fans out over the worker budget;
        // the CSV is byte-identical for every job count (`verify` diffs
        // it).
        let report = cl
            .run(
                ClusterRunSpec::new(&trace, TRACE_INTERVAL_MS, CLUSTER_MAX_RPS)
                    .seed(2011)
                    .faults(node_faults.clone())
                    .jobs(jobs),
            )
            .expect("valid cluster run");
        let violations: usize = report.intervals.iter().map(|r| r.violations).sum();
        outln!(
            block,
            "{:19} p99 {:7.1} ms  energy {:8.0} J  violations {violations:5} ({:5.2}%)  shed {:5}  redistributed {:3}  skew {:.2}",
            routing.name(),
            report.p99_ms,
            report.energy_j,
            report.violation_ratio * 100.0,
            report.shed,
            report.retry.redistributed,
            report.mean_util_skew
        );
        for (i, r) in report.intervals.iter().enumerate() {
            if i % 4 == 0 {
                csv.row()
                    .s(routing.name())
                    .f(i as f64 / 12.0)
                    .f(r.utilization)
                    .f(r.p99_ms)
                    .f(r.power_w)
                    .n(r.nodes_up)
                    .n(r.shed)
                    .n(r.redistributed)
                    .n(r.violations)
                    .n(r.completed)
                    .f(r.util_skew);
            }
        }
    });
    fig.save("cluster_trace.csv", &csv);
}

/// Chaos campaign (DESIGN.md §12) — a seeded random node-level fault
/// campaign against a 3-node fleet, replayed under four request-lifecycle
/// configurations of increasing sophistication. Every replay is audited
/// against the simulator's conservation invariants (every admitted
/// request reaches exactly one terminal state, refunded busy-energy never
/// exceeds booked). The full stack must strictly beat the no-lifecycle
/// baseline on QoS violations under the *same* faults and seed.
fn chaos(fig: &mut Fig) {
    outln!(
        fig,
        "== Chaos: request-lifecycle configs under a random fault campaign (3 x Setting-I Heter nodes) =="
    );
    let app = asr();
    const NODES: usize = 3;
    // The afternoon-peak 8 hours of the diurnal trace, re-timed to start
    // at zero: high enough load that a faulted node's share genuinely
    // overloads the survivors.
    let trace = trace_window(96..192);
    let duration_ms = trace.len() as f64 * TRACE_INTERVAL_MS;
    // ~47 RPS/node at trace peak vs ~75 RPS single-node capacity: the
    // healthy fleet absorbs it, a two-node fleet is pressed hard.
    const CHAOS_MAX_RPS: f64 = 140.0;
    // Seeded chaos: up to 4 random fail-stop / slowdown episodes per
    // node, each 2-12% of the window. Node-level plan (device = node).
    let node_faults = FaultPlan::random_campaign(0xC4A05, NODES, duration_ms, 4);
    node_faults
        .validate()
        .expect("campaign must be well-formed");
    outln!(
        fig,
        "campaign seed 0xC4A05: {} node-level fault events over {:.0} min",
        node_faults.events().len(),
        duration_ms / 60_000.0
    );
    let deadline = LifecycleConfig {
        deadline_factor: Some(2.0),
        ..LifecycleConfig::default()
    };
    let retry = LifecycleConfig {
        deadline_factor: Some(2.0),
        retry: RetryPolicy::Backoff(BackoffPolicy::default()),
        ..LifecycleConfig::default()
    };
    let configs: [(&str, LifecycleConfig, Option<BreakerConfig>); 4] = [
        ("no-lifecycle", LifecycleConfig::default(), None),
        ("deadline-cancel", deadline, None),
        ("deadline+retry", retry, None),
        (
            "full-lifecycle",
            full_lifecycle(),
            Some(BreakerConfig::default()),
        ),
    ];
    // The four replays are independent deterministic simulations.
    let jobs = fig.jobs();
    let header = "config,hour,utilization,p99_ms,power_w,nodes_up,shed,redistributed,timed_out,violations,completed";
    let (csv, runs) = fig.fan_out(configs, header, |(name, lifecycle, breaker), block, csv| {
        // Plain shortest-queue: no QoS-aware shedding, so the lifecycle
        // machinery (not admission control) does the protective work and
        // the configs separate cleanly.
        let routing = RoutingPolicy::JoinShortestQueue;
        let mut cl = heter_fleet(&app, NODES, routing, 512, lifecycle, breaker);
        let report = cl
            .run(
                ClusterRunSpec::new(&trace, TRACE_INTERVAL_MS, CHAOS_MAX_RPS)
                    .seed(2029)
                    .faults(node_faults.clone())
                    .jobs(jobs),
            )
            .expect("valid chaos run");
        // Invariant audit: conservation must hold on every node.
        let (merged, per_node) = cl.audits();
        for (j, a) in per_node.iter().enumerate() {
            a.check()
                .unwrap_or_else(|e| panic!("{name}: node {j} audit failed: {e}"));
        }
        merged
            .check()
            .unwrap_or_else(|e| panic!("{name}: merged audit failed: {e}"));
        let violations: usize = report.intervals.iter().map(|r| r.violations).sum();
        outln!(
            block,
            "{name:16} p99 {:7.1} ms  completed {:6}  violations {violations:5} ({:5.2}%)  timed-out {:5}  retried {:4}  exhausted {:3}  hedges {:3} (won {:3})  redistributed {:3}",
            report.p99_ms,
            report.completed,
            report.violation_ratio * 100.0,
            report.timed_out,
            report.retry.device_retries,
            report.retry.exhausted,
            report.retry.hedges_fired,
            report.retry.hedge_wins,
            report.retry.redistributed
        );
        for (i, r) in report.intervals.iter().enumerate() {
            if i % 2 == 0 {
                csv.row()
                    .s(name)
                    .f(i as f64 / 12.0)
                    .f(r.utilization)
                    .f(r.p99_ms)
                    .f(r.power_w)
                    .n(r.nodes_up)
                    .n(r.shed)
                    .n(r.redistributed)
                    .n(r.timed_out)
                    .n(r.violations)
                    .n(r.completed);
            }
        }
        violations
    });
    let (baseline, full_stack) = (runs[0], runs[3]);
    assert!(
        full_stack < baseline,
        "full lifecycle must strictly reduce violations: {full_stack} !< {baseline}"
    );
    outln!(
        fig,
        "violations under chaos: no-lifecycle {baseline} vs full-lifecycle {full_stack} ({:.0}% fewer); all audits green",
        (1.0 - full_stack as f64 / baseline as f64) * 100.0
    );
    fig.save("chaos_trace.csv", &csv);
}

/// Deadline cancellation, retries with backoff and hedging, all on.
fn full_lifecycle() -> LifecycleConfig {
    LifecycleConfig {
        deadline_factor: Some(2.0),
        retry: RetryPolicy::Backoff(BackoffPolicy::default()),
        hedge: Some(HedgeConfig::default()),
    }
}

/// Elastic fleet (DESIGN.md §17) — multi-tenant QoS classes, elastic
/// autoscaling, and preemptible spot capacity over the 24 h diurnal
/// trace. Three replays on a 4-node Setting-I Heter fleet, each node
/// hosting a strict ASR tenant (200 ms bound, weight 3) and a lenient
/// matrix-factorization tenant (600 ms bound, weight 1):
///
/// - `fixed`: all four nodes serve all day — the provisioning baseline.
/// - `spot-notice`: the autoscaler follows the diurnal load, and two
///   nodes are spot instances revoked with a 30 s notice (node 3 through
///   the overnight lull, node 2 at the evening shoulder). The driver
///   drains each ahead of its deadline, so no breaker ever trips.
/// - `spot-surprise`: the same capacity losses as unannounced
///   fail-stops — the control showing what the notice is worth.
///
/// Asserted in-figure: all lifecycle audits green; zero breaker trips
/// with notice and at least one without; the noticed elastic fleet stays
/// within noise of the fixed fleet's violation ratio at measurably lower
/// energy and node-hours.
fn elastic(fig: &mut Fig) {
    outln!(
        fig,
        "== Elastic: QoS classes + autoscaler + spot nodes, 24 h trace (4 x Setting-I Heter nodes, 2 tenants/node) =="
    );
    let strict_app = asr();
    let lenient_app = matrix_factorization();
    let trace = replay_trace();
    let hour_ms = |h: f64| h * 12.0 * TRACE_INTERVAL_MS;
    const NODES: usize = 4;
    /// Lenient tenant's p99 bound: three times the strict ASR bound.
    const LENIENT_BOUND_MS: f64 = 600.0;
    /// ~45 RPS/node at trace peak across both tenants: comfortable for
    /// the full fleet, tight for the lull-sized elastic fleet.
    const ELASTIC_MAX_RPS: f64 = 180.0;
    /// Spot revocation notice: three re-planning intervals.
    const NOTICE_MS: f64 = 30_000.0;
    let noticed = FaultPlan::new()
        .revoke(hour_ms(2.0), 3, NOTICE_MS)
        .recover(hour_ms(8.0), 3)
        .revoke(hour_ms(20.0), 2, NOTICE_MS)
        .recover(hour_ms(23.0), 2);
    // Same capacity losses, no warning: fail-stop exactly where each
    // noticed revocation's deadline lands.
    let surprise = FaultPlan::new()
        .fail_stop(hour_ms(2.0) + NOTICE_MS, 3)
        .recover(hour_ms(8.0), 3)
        .fail_stop(hour_ms(20.0) + NOTICE_MS, 2)
        .recover(hour_ms(23.0), 2);
    // A 3-node floor keeps enough headroom that the morning ramp lands
    // on a fleet that can absorb it while a scale-up is still warming;
    // shrinking to 2 overnight saves a little more energy but the first
    // traffic spike then overloads the survivors and trips breakers.
    let autoscale = AutoscaleConfig {
        min_nodes: 3,
        target_rps_per_node: 45.0,
        warmup_ms: NOTICE_MS,
        cooldown_intervals: 3,
        ..AutoscaleConfig::default()
    };
    outln!(
        fig,
        "spot schedule: node 3 revoked 02:00 + {NOTICE_MS:.0} ms notice (back 08:00), node 2 revoked 20:00 (back 23:00)"
    );
    let configs: [(&str, FaultPlan, Option<AutoscaleConfig>); 3] = [
        ("fixed", FaultPlan::new(), None),
        ("spot-notice", noticed, Some(autoscale.clone())),
        ("spot-surprise", surprise, Some(autoscale)),
    ];
    // The three replays are independent deterministic simulations.
    let jobs = fig.jobs();
    let header = "config,hour,utilization,p99_ms,power_w,nodes_up,nodes_active,shed,redistributed,violations,completed";
    let (csv, runs) = fig.fan_out(configs, header, |(name, faults, autoscale), block, csv| {
        let (setup, strict_spaces) = setting_i(Architecture::HeterPoly, &strict_app, 1);
        let (_, lenient_spaces) = setting_i(Architecture::HeterPoly, &lenient_app, 1);
        let strict_ctx = AppContext::new(
            strict_app.clone(),
            strict_spaces,
            setup.clone(),
            QOS_BOUND_MS,
        )
        .with_tenant("asr-strict", 3.0);
        let lenient_ctx = AppContext::new(
            lenient_app.clone(),
            lenient_spaces,
            setup.clone(),
            LENIENT_BOUND_MS,
        )
        .with_tenant("mf-lenient", 1.0);
        let nodes: Vec<ClusterNode> = (0..NODES)
            .map(|_| ClusterNode::new_multi(vec![strict_ctx.clone(), lenient_ctx.clone()]))
            .collect();
        let mut cl = Cluster::from_nodes(
            nodes,
            ClusterConfig {
                bound_ms: QOS_BOUND_MS,
                routing: RoutingPolicy::QosAware,
                // Roomier than the single-tenant cluster figure: each
                // node's cap is split again across two tenants, and the
                // strict tenant must hold its 200 ms bound on its share.
                power_budget_w: 380.0 * NODES as f64,
                node_floor_w: 40.0,
                max_backlog: 512,
                lifecycle: LifecycleConfig::default(),
                breaker: Some(BreakerConfig::default()),
            },
        )
        .expect("valid cluster");
        let mut spec = ClusterRunSpec::new(&trace, TRACE_INTERVAL_MS, ELASTIC_MAX_RPS)
            .seed(2017)
            .faults(faults)
            .traffic_mix(vec![0.75, 0.25])
            // Idle platform draw per powered-on node — the term elastic
            // scale-down saves. ~30% of the mean loaded draw, in line
            // with modern servers' idle-to-peak ratios.
            .node_static_w(80.0)
            .jobs(jobs);
        if let Some(autoscale) = autoscale {
            spec = spec.autoscale(autoscale);
        }
        let report = cl.run(spec).expect("valid elastic run");
        // Invariant audit: conservation must hold on every node even
        // across drains, revocations, and scale events.
        let (merged, per_node) = cl.audits();
        for (j, a) in per_node.iter().enumerate() {
            a.check()
                .unwrap_or_else(|e| panic!("{name}: node {j} audit failed: {e}"));
        }
        merged
            .check()
            .unwrap_or_else(|e| panic!("{name}: merged audit failed: {e}"));
        // Fleet cost: node-hours priced at the per-node-hour share of the
        // monthly TCO (730 h/month) at this run's mean power draw.
        let duration_h = trace.len() as f64 * TRACE_INTERVAL_MS / 3_600_000.0;
        let mean_power_per_node = if report.node_hours > 0.0 {
            report.energy_j / 3600.0 / report.node_hours
        } else {
            0.0
        };
        let tco_node_hour =
            monthly_tco_usd(&setup, mean_power_per_node, &TcoParams::default()) / 730.0;
        let cost = report.node_hours * tco_node_hour;
        outln!(
            block,
            "{name:13} p99 {:6.1} ms  violations {:5.2}%  energy {:8.0} J  node-hours {:5.2} (of {:.2})  cost ${cost:6.2}  trips {}  shed {:5}  redistributed {:4}",
            report.p99_ms,
            report.violation_ratio * 100.0,
            report.energy_j,
            report.node_hours,
            NODES as f64 * duration_h,
            report.breaker_trips,
            report.shed,
            report.retry.redistributed
        );
        for (c, &(completed, violations, shed)) in report.per_class.iter().enumerate() {
            let label = cl.nodes()[0].tenant_label(c);
            outln!(
                block,
                "  class {c} {label:10} completed {completed:6}  violations {violations:5} ({:5.2}%)  shed {shed:5}",
                if completed > 0 {
                    violations as f64 / completed as f64 * 100.0
                } else {
                    0.0
                }
            );
        }
        for (i, r) in report.intervals.iter().enumerate() {
            if i % 4 == 0 {
                csv.row()
                    .s(name)
                    .f(i as f64 / 12.0)
                    .f(r.utilization)
                    .f(r.p99_ms)
                    .f(r.power_w)
                    .n(r.nodes_up)
                    .n(r.nodes_active)
                    .n(r.shed)
                    .n(r.redistributed)
                    .n(r.violations)
                    .n(r.completed);
            }
        }
        (
            report.breaker_trips,
            report.violation_ratio,
            report.energy_j,
            report.node_hours,
        )
    });
    let (_, fixed_vr, fixed_energy, fixed_hours) = runs[0];
    let (notice_trips, notice_vr, notice_energy, notice_hours) = runs[1];
    let surprise_trips = runs[2].0;
    assert_eq!(
        notice_trips, 0,
        "noticed revocations must never trip a breaker"
    );
    assert!(
        surprise_trips > 0,
        "surprise fail-stops must trip at least one breaker"
    );
    assert!(
        notice_energy < fixed_energy,
        "elastic fleet must save energy: {notice_energy} !< {fixed_energy}"
    );
    assert!(
        notice_hours < fixed_hours,
        "elastic fleet must save node-hours: {notice_hours} !< {fixed_hours}"
    );
    assert!(
        notice_vr <= fixed_vr + 0.02,
        "elastic+spot must stay within noise of the fixed fleet's violation ratio: {notice_vr} vs {fixed_vr}"
    );
    outln!(
        fig,
        "elastic+spot vs fixed: violations {:.2}% vs {:.2}%, energy {:.0} J vs {:.0} J ({:.0}% saved), node-hours {:.2} vs {:.2}; notice prevents all breaker trips ({} under surprise)",
        notice_vr * 100.0,
        fixed_vr * 100.0,
        notice_energy,
        fixed_energy,
        (1.0 - notice_energy / fixed_energy) * 100.0,
        notice_hours,
        fixed_hours,
        surprise_trips
    );
    fig.save("elastic_trace.csv", &csv);
}

/// Observability flamechart (DESIGN.md §13) — replays a shortened chaos
/// campaign with a [`MemRecorder`] attached to every layer (simulator
/// spans, runtime re-plan decisions, cluster routing / breaker /
/// governor events) and exports the full-lifecycle run as a Chrome
/// `trace_event` JSON plus a per-config event/histogram summary CSV.
/// Recording must not perturb the simulation, and the exported trace is
/// byte-identical for every `--jobs` count (`verify` diffs it).
fn obs(fig: &mut Fig) {
    outln!(
        fig,
        "== Observability: structured telemetry of the chaos campaign (3 x Setting-I Heter nodes) =="
    );
    let app = asr();
    const NODES: usize = 3;
    // The first 4 afternoon-peak hours of the chaos window (§12),
    // re-timed to zero — enough activity for a representative
    // flamechart at half the chaos runtime.
    let trace = trace_window(96..144);
    let duration_ms = trace.len() as f64 * TRACE_INTERVAL_MS;
    const OBS_MAX_RPS: f64 = 140.0;
    let node_faults = FaultPlan::random_campaign(0xC4A05, NODES, duration_ms, 4);
    node_faults
        .validate()
        .expect("campaign must be well-formed");
    let configs: [(&str, LifecycleConfig, Option<BreakerConfig>); 2] = [
        ("no-lifecycle", LifecycleConfig::default(), None),
        (
            "full-lifecycle",
            full_lifecycle(),
            Some(BreakerConfig::default()),
        ),
    ];
    // Independent deterministic replays, one MemRecorder each.
    let jobs = fig.jobs();
    let header = "config,events,exec_spans,intervals,replans,faults,hedges,routes,shed_events,breaker_transitions,governor_splits,latency_p50_ms,latency_p99_ms,queue_wait_p99_ms,service_p99_ms";
    let (csv, runs) = fig.fan_out(configs, header, |(name, lifecycle, breaker), block, csv| {
        let routing = RoutingPolicy::JoinShortestQueue;
        let mut cl = heter_fleet(&app, NODES, routing, 512, lifecycle, breaker);
        let rec = MemRecorder::new();
        // With the recorder attached the cluster steps its nodes
        // serially regardless of the job budget (telemetry sequence
        // numbers are emission-ordered); setting jobs anyway exercises
        // that fallback in `verify`'s jobs-1-vs-N diff.
        let report = cl
            .run(
                ClusterRunSpec::new(&trace, TRACE_INTERVAL_MS, OBS_MAX_RPS)
                    .seed(2029)
                    .faults(node_faults.clone())
                    .recorder(Box::new(rec.clone()))
                    .jobs(jobs),
            )
            .expect("valid obs run");
        let samples = rec.samples();
        assert_eq!(rec.dropped(), 0, "{name}: recorder buffer overflowed");

        let count = |kind: &str| samples.iter().filter(|s| s.event.kind() == kind).count();
        let replans = samples
            .iter()
            .filter(|s| {
                matches!(
                    s.event,
                    ObsEvent::Interval {
                        policy_changed: true,
                        ..
                    }
                )
            })
            .count();
        let latency = latency_summary(&samples);
        let queue = queue_wait_summary(&samples, None);
        let service = service_summary(&samples, None);
        outln!(
            block,
            "{name:14} {:6} events  spans {:5}  intervals {:3} (replans {:2})  faults {:2}  hedges {:3}  breaker moves {:2}  completed {:6}",
            samples.len(),
            count("exec-start"),
            count("interval"),
            replans,
            count("fault"),
            count("hedge-fired"),
            count("breaker"),
            report.completed,
        );
        csv.row()
            .s(name)
            .n(samples.len())
            .n(count("exec-start"))
            .n(count("interval"))
            .n(replans)
            .n(count("fault"))
            .n(count("hedge-fired"))
            .n(count("route"))
            .n(count("shed"))
            .n(count("breaker"))
            .n(count("governor-split"))
            .f(latency.map_or(0.0, |h| h.p50))
            .f(latency.map_or(0.0, |h| h.p99))
            .f(queue.map_or(0.0, |h| h.p99))
            .f(service.map_or(0.0, |h| h.p99));
        // Per-interval control-plane summary straight from the recorded
        // Interval events: one row per (node track, interval), with the
        // re-plan reason and predicted-vs-observed p99.
        let mut ivals = Csv::new(OBS_INTERVAL_HEADER);
        for s in &samples {
            if let ObsEvent::Interval {
                index,
                offered_rps,
                load_est_rps,
                policy_changed,
                reason,
                predicted_p99_ms,
                observed_p99_ms,
                power_w,
                completed,
                violations,
                ..
            } = s.event
            {
                ivals
                    .row()
                    .s(name)
                    .n(s.track as usize)
                    .n(index)
                    .s(reason)
                    .n(usize::from(policy_changed))
                    .f(offered_rps)
                    .f(load_est_rps)
                    .f(predicted_p99_ms)
                    .f(observed_p99_ms)
                    .f(power_w)
                    .n(completed)
                    .n(violations);
            }
        }
        (ivals, samples)
    });
    let mut ivals = Csv::new(OBS_INTERVAL_HEADER);
    for (part, _) in &runs {
        ivals.append(part.clone());
    }
    // Flamechart of the full-lifecycle run: every exec span on its
    // node/device row, control-plane re-plans and cluster events on
    // dedicated tracks.
    let json = chrome_trace_json(&runs[1].1);
    assert!(
        json.starts_with("{\"traceEvents\":["),
        "invalid trace shell"
    );
    assert!(
        json.contains("\"ph\":\"X\"") && json.contains("\"process_name\""),
        "trace must contain spans and track metadata"
    );
    fig.save_text("obs_trace.json", json);
    fig.save("obs_summary.csv", &csv);
    fig.save("obs_intervals.csv", &ivals);
}

/// `obs_intervals.csv` columns: the control-plane interval stream.
const OBS_INTERVAL_HEADER: &str =
    "config,track,interval,reason,policy_changed,offered_rps,load_est_rps,predicted_p99_ms,observed_p99_ms,power_w,completed,violations";

// ---------------------------------------------------------------------------
// Scalability and cost (Figs. 13–14)
// ---------------------------------------------------------------------------

/// Ablations (DESIGN.md §6): quality deltas of the design choices.
fn ablations(fig: &mut Fig) {
    outln!(
        fig,
        "== Ablations: value of each design choice (ASR, Setting-I Heter) =="
    );
    let app = asr();
    let (setup, spaces) = setting_i(Architecture::HeterPoly, &app, fig.jobs());
    let sched = Scheduler::default();
    let mut csv = Csv::new("ablation,before,after");

    // 1. Energy step: dynamic energy with and without Step 2.
    let fast = sched
        .plan_latency(&app, &spaces, &setup.pool)
        .expect("plan");
    let tuned = sched
        .plan(&app, &spaces, &setup.pool, QOS_BOUND_MS)
        .expect("plan");
    outln!(
        fig,
        "energy step: dynamic energy {:.0} -> {:.0} mJ ({:.0}% less), makespan {:.0} -> {:.0} ms",
        fast.dynamic_mj,
        tuned.dynamic_mj,
        (1.0 - tuned.dynamic_mj / fast.dynamic_mj) * 100.0,
        fast.makespan_ms,
        tuned.makespan_ms
    );
    csv.row()
        .s("energy_step_dynamic_mj")
        .f(fast.dynamic_mj)
        .f(tuned.dynamic_mj);

    // 2. Fusion: off-chip traffic saved by global optimization.
    for kernel in app.kernels() {
        let p = kernel.profile();
        outln!(
            fig,
            "fusion: {:14} off-chip {:6.1} -> {:6.1} MB per invocation",
            kernel.name(),
            p.unfused_bytes as f64 / 1e6,
            p.min_bytes as f64 / 1e6
        );
        csv.row()
            .s(format!("fusion_bytes_{}", kernel.name()))
            .f(p.unfused_bytes as f64 / 1e6)
            .f(p.min_bytes as f64 / 1e6);
    }

    // 3. Heterogeneity: best homogeneous plan vs heterogeneous plan for
    //    one request.
    let gpu_only = sched
        .plan_latency(&app, &spaces, &poly_sched::Pool::heterogeneous(1, 0))
        .expect("plan");
    let fpga_only = sched
        .plan_latency(&app, &spaces, &poly_sched::Pool::heterogeneous(0, 5))
        .expect("plan");
    outln!(
        fig,
        "heterogeneity: single-request makespan het {:.0} ms vs gpu-only {:.0} ms vs fpga-only {:.0} ms",
        fast.makespan_ms, gpu_only.makespan_ms, fpga_only.makespan_ms
    );
    csv.row()
        .s("single_request_makespan")
        .f(fast.makespan_ms)
        .f(gpu_only.makespan_ms.min(fpga_only.makespan_ms));

    // 4. Priority list: HEFT-style W_L ordering vs naive topological
    //    order with min-latency implementations.
    let naive =
        poly_sched::naive_plan(&app, &spaces, &setup.pool, &PcieLink::gen3_x16()).expect("plan");
    outln!(
        fig,
        "priority list: makespan {:.0} ms (W_L ordered) vs {:.0} ms (naive topo order)",
        fast.makespan_ms,
        naive.makespan_ms
    );
    csv.row()
        .s("priority_list_makespan")
        .f(naive.makespan_ms)
        .f(fast.makespan_ms);

    // 5. Feedback: model correction value after one observed interval.
    let mut opt = Optimizer::new();
    let (policy, pred) =
        opt.plan_for_load(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS, 20.0);
    let measured = poly_sim::steady_state(
        &app,
        &setup.pool,
        &policy,
        &setup.sim_config,
        20.0,
        5_000.0,
        20_000.0,
        3,
    );
    let before = (measured.latency.p99() - pred.p99_ms).abs() / measured.latency.p99();
    opt.model_mut().observe(pred.p99_ms, measured.latency.p99());
    let (policy, pred) =
        opt.plan_for_load(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS, 20.0);
    let measured = poly_sim::steady_state(
        &app,
        &setup.pool,
        &policy,
        &setup.sim_config,
        20.0,
        5_000.0,
        20_000.0,
        4,
    );
    let after = (measured.latency.p99() - pred.p99_ms).abs() / measured.latency.p99();
    outln!(
        fig,
        "feedback: model p99 error {:.0}% -> {:.0}% after one correction",
        before * 100.0,
        after * 100.0
    );
    csv.row().s("model_p99_error").f(before).f(after);
    fig.save("ablations.csv", &csv);
}

/// Backend calibration (DESIGN.md §16) — validates the pluggable
/// execution-backend seam end to end:
///
/// 1. capability-driven pool construction reproduces every Table III
///    node layout byte for byte;
/// 2. the analytical backend is bit-identical to the explorer on every
///    design point of the whole benchmark suite;
/// 3. the CPU backend really executes each kernel's sized micro-kernel
///    and the calibration harness reports the analytical-vs-measured
///    latency error distribution.
///
/// Two CSVs: `backend_model.csv` is committed and fully deterministic
/// (micro-kernel sizing, result checksums, analytical latencies —
/// `verify` diffs it across `--jobs` counts and against the committed
/// copy); `backend_calibration.csv` carries the measured wall-clock
/// figures and is gitignored (they vary run to run by design). `POLY_BACKEND_TOL` bounds the accepted max relative
/// error (generous default: the point is the report, not a hard gate).
fn backend(fig: &mut Fig) {
    outln!(
        fig,
        "== Backend: capability pools, analytical bit-equivalence, CPU calibration =="
    );

    // 1. Capability-driven pools must reproduce the provisioned layouts.
    let mut layouts = 0usize;
    for setting in Setting::ALL {
        for arch in ARCHS {
            let n = table_iii(setting, arch);
            let client = AnalyticalClient::new(n.gpu.clone(), n.fpga.clone(), n.gpus(), n.fpgas());
            assert_eq!(
                accel_pool(&client),
                n.pool,
                "{} {}: capability pool diverged",
                setting.name(),
                arch.name()
            );
            layouts += 1;
        }
    }
    outln!(
        fig,
        "capability pools: {layouts}/9 Table III layouts reproduced from device advertisements"
    );

    // 2. Analytical backend: every design point of every suite kernel,
    //    compiled through the backend seam, estimates to exactly the
    //    explorer's figures.
    let setup = table_iii(Setting::I, Architecture::HeterPoly);
    let explorer = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let client = AnalyticalClient::new(
        setup.gpu.clone(),
        setup.fpga.clone(),
        setup.gpus(),
        setup.fpgas(),
    );
    let mut points_checked = 0usize;
    for app in suite() {
        for kernel in app.kernels() {
            let space = cache().explore(&explorer, kernel);
            for kind in [DeviceKind::Gpu, DeviceKind::Fpga] {
                for point in space.points(kind) {
                    let exe = client
                        .compile(
                            &KernelWorkload::from_kernel(kernel).with_tuning(point.tuning.clone()),
                        )
                        .expect("explorer points compile");
                    let est = exe.estimate();
                    let same = est.latency_ms.to_bits() == point.estimate.latency_ms.to_bits()
                        && est.service_ms.to_bits() == point.estimate.service_ms.to_bits()
                        && est.active_power_w.to_bits() == point.estimate.active_power_w.to_bits()
                        && est.idle_power_w.to_bits() == point.estimate.idle_power_w.to_bits()
                        && est.batch == point.estimate.batch;
                    assert!(
                        same,
                        "{} {} r{}: backend estimate diverged from explorer",
                        kernel.name(),
                        kind.name(),
                        point.index
                    );
                    points_checked += 1;
                }
            }
        }
    }
    outln!(
        fig,
        "analytical backend: {points_checked} design points bit-identical to the explorer"
    );

    // 3. CPU calibration sweep over the whole suite (names are
    //    app-qualified: the client caches measurements by name).
    let cpu = CpuClient::new(fig.jobs().clamp(1, 4));
    let kernels: Vec<(String, poly_ir::KernelProfile)> = suite()
        .iter()
        .flat_map(|app| {
            app.kernels()
                .iter()
                .map(|k| (format!("{}/{}", app.name(), k.name()), k.profile()))
                .collect::<Vec<_>>()
        })
        .collect();
    let summary = calibrate(&cpu, &kernels);
    for (class, gflops) in &summary.class_gflops {
        outln!(fig, "reference {class:7} sustained {gflops:6.2} Gflop/s");
    }
    outln!(
        fig,
        "{:24} {:7} {:>12} {:>12} {:>7} {:>7}",
        "kernel",
        "class",
        "predicted",
        "measured",
        "err",
        "Gflop/s"
    );
    for c in &summary.per_kernel {
        outln!(
            fig,
            "{:24} {:7} {:>10.1}ms {:>10.1}ms {:>6.1}% {:>7.2}",
            c.kernel,
            c.class,
            c.predicted_ms,
            c.measured_ms,
            c.rel_err * 100.0,
            c.gflops
        );
    }
    outln!(
        fig,
        "model error: mean {:.1}%  median {:.1}%  max {:.1}%",
        summary.mean_rel_err * 100.0,
        summary.median_rel_err * 100.0,
        summary.max_rel_err * 100.0
    );

    // Committed, deterministic: micro-kernel sizing, result checksums
    // (thread-count independent), and the analytical primary latencies.
    let mut model = Csv::new("kernel,class,total_flops,elements,iterations,micro_dim,micro_repeats,checksum,gpu_min_latency_ms,fpga_min_latency_ms");
    for app in suite() {
        for kernel in app.kernels() {
            let name = format!("{}/{}", app.name(), kernel.name());
            let c = summary
                .per_kernel
                .iter()
                .find(|c| c.kernel == name)
                .expect("every suite kernel was calibrated");
            let profile = kernel.profile();
            let micro = poly_backend::MicroKernel::for_profile(&profile);
            let space = cache().explore(&explorer, kernel);
            let lat_of = |kind: DeviceKind| {
                space
                    .min_latency(kind)
                    .map_or_else(|| "-".to_string(), |p| f2(p.latency_ms()))
            };
            model
                .row()
                .s(name)
                .s(c.class.to_string())
                .s(format!("{:.0}", profile.total_flops()))
                .s(profile.elements.to_string())
                .s(profile.iterations.to_string())
                .s(micro.dim.to_string())
                .s(micro.repeats.to_string())
                .s(format!("{:e}", c.checksum))
                .s(lat_of(DeviceKind::Gpu))
                .s(lat_of(DeviceKind::Fpga));
        }
    }
    fig.save("backend_model.csv", &model);

    // Measured wall-clock figures: gitignored, they vary run to run.
    let mut measured = Csv::new("kernel,class,predicted_ms,measured_ms,rel_err,gflops");
    for c in &summary.per_kernel {
        measured
            .row()
            .s(c.kernel.clone())
            .s(c.class.to_string())
            .f(c.predicted_ms)
            .f(c.measured_ms)
            .f(c.rel_err)
            .f(c.gflops);
    }
    fig.save("backend_calibration.csv", &measured);

    let tol = fig.knob("POLY_BACKEND_TOL");
    assert!(
        summary.max_rel_err <= tol,
        "calibration error {:.2} exceeds tolerance {tol}",
        summary.max_rel_err
    );
}

/// Fig. 13 — max throughput vs GPU/FPGA power split (1000 W cap).
fn fig13(fig: &mut Fig) {
    outln!(
        fig,
        "== Fig. 13: architecture scalability (power split, 1000 W) =="
    );
    let app = asr();
    const SPLITS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let combos: Vec<(Setting, f64)> = Setting::ALL
        .iter()
        .flat_map(|&s| SPLITS.iter().map(move |&x| (s, x)))
        .collect();
    let jobs = fig.jobs();
    let measured = par_map(jobs, &combos, |_, &(setting, split)| {
        let setup = power_split(setting, 1000.0, split);
        let label = format!("{}g{}f", setup.gpus(), setup.fpgas());
        let mut sys = System::with_setup(&app, setup, QOS_BOUND_MS);
        (label, sys.max_rps_jobs(jobs))
    });
    let mut csv = Csv::new("setting,gpu_share,devices,max_rps");
    for (si, setting) in Setting::ALL.iter().enumerate() {
        outp!(fig, "{:12}", setting.name());
        for (xi, &split) in SPLITS.iter().enumerate() {
            let (label, max) = &measured[si * SPLITS.len() + xi];
            outp!(fig, "  {:3.0}%:{max:6.1}({label})", split * 100.0);
            csv.row()
                .s(setting.name())
                .f(split)
                .s(label.clone())
                .f(*max);
        }
        outln!(fig);
    }
    fig.save("fig13_power_split.csv", &csv);
}

/// Fig. 14 — cost efficiency under the three settings.
fn fig14(fig: &mut Fig) {
    outln!(
        fig,
        "== Fig. 14: cost efficiency (max RPS / monthly TCO) =="
    );
    let app = asr();
    let params = TcoParams::default();
    let combos: Vec<(Setting, Architecture)> = Setting::ALL
        .iter()
        .flat_map(|&s| ARCHS.iter().map(move |&a| (s, a)))
        .collect();
    let jobs = fig.jobs();
    let measured = par_map(jobs, &combos, |_, &(setting, arch)| {
        let mut sys = System::new(&app, setting, arch, QOS_BOUND_MS);
        let max = sys.max_rps_jobs(jobs);
        // Operate at 70% load for the power term.
        let power = sys.measure((max * 0.7).max(0.01)).avg_power_w;
        let tco = monthly_tco_usd(&sys.setup, power, &params);
        let ce = cost_efficiency(max, tco) * 1000.0; // RPS per k$/month
        (max, power, tco, ce)
    });
    let mut csv = Csv::new("setting,arch,max_rps,power_w,tco_usd_month,rps_per_kusd");
    for (si, setting) in Setting::ALL.iter().enumerate() {
        outp!(fig, "{:12}", setting.name());
        for (ai, arch) in ARCHS.iter().enumerate() {
            let (max, power, tco, ce) = measured[si * ARCHS.len() + ai];
            outp!(fig, "  {}={ce:6.2}", arch.name());
            csv.row()
                .s(setting.name())
                .s(arch.name())
                .f(max)
                .f(power)
                .f(tco)
                .f(ce);
        }
        outln!(fig);
    }
    fig.save("fig14_cost_efficiency.csv", &csv);
}

// ---------------------------------------------------------------------------
// Scale stress (DESIGN.md §14)
// ---------------------------------------------------------------------------

/// Scale-figure trace interval: 10 simulated minutes per point.
const SCALE_INTERVAL_MS: f64 = 600_000.0;

/// Scale stress (DESIGN.md §14) — a week-long diurnal replay on a
/// 100-node fleet, ~10^8 requests end to end, exercising the timer-wheel
/// event core, the arena-compacted request state, and the
/// interval-barrier parallel node stepping at production scale. Not part
/// of `all` (it dwarfs every other figure); CI smoke-runs
/// `verify scale` with the `POLY_SCALE_NODES` / `POLY_SCALE_DAYS` /
/// `POLY_SCALE_MAX_RPS` knobs, which diffs `--jobs 1` against `--jobs 4`
/// but not against the committed full-size copy. The CSV is byte-identical
/// for every job count; wall-clock and throughput go to stderr only.
fn scale(fig: &mut Fig) {
    let nodes = fig.knob("POLY_SCALE_NODES") as usize;
    let days = fig.knob("POLY_SCALE_DAYS");
    let max_rps = fig.knob("POLY_SCALE_MAX_RPS");
    outln!(
        fig,
        "== Scale: {nodes}-node fleet, {days:.2}-day diurnal trace, {max_rps:.0} RPS peak =="
    );
    let app = asr();
    // One 24-hour diurnal profile (288 five-minute points), resampled to
    // the 10-minute interval grid and tiled across the days.
    let day = google_trace_24h(300_000.0, 2011);
    let points_per_day = 144.0;
    let n_points = (days * points_per_day).round().max(1.0) as usize;
    let trace: Vec<TracePoint> = (0..n_points)
        .map(|i| TracePoint {
            start_ms: i as f64 * SCALE_INTERVAL_MS,
            utilization: day[(i * 2) % day.len()].utilization,
        })
        .collect();
    let offered: f64 = trace
        .iter()
        .map(|p| p.utilization * max_rps * SCALE_INTERVAL_MS / 1000.0)
        .sum();
    outln!(
        fig,
        "{} intervals of {:.0} s, ~{:.2e} requests offered fleet-wide",
        trace.len(),
        SCALE_INTERVAL_MS / 1000.0,
        offered
    );

    let lifecycle = LifecycleConfig::default();
    let mut cl = heter_fleet(
        &app,
        nodes,
        RoutingPolicy::QosAware,
        512 * nodes,
        lifecycle,
        None,
    );
    let t = Instant::now();
    let report = cl
        .run(
            ClusterRunSpec::new(&trace, SCALE_INTERVAL_MS, max_rps)
                .seed(2011)
                .jobs(fig.jobs()),
        )
        .expect("valid scale run");
    let wall = t.elapsed().as_secs_f64();
    // Machine-dependent throughput goes to stderr so the figure's stdout
    // and CSV stay byte-comparable across runs and job counts.
    eprintln!(
        "[scale] {} completions in {wall:.1}s wall ({:.0} completions/s, sim/wall speedup {:.0}x, jobs={})",
        report.completed,
        report.completed as f64 / wall.max(1e-9),
        trace.len() as f64 * SCALE_INTERVAL_MS / 1000.0 / wall.max(1e-9),
        fig.jobs()
    );

    let violations: usize = report.intervals.iter().map(|r| r.violations).sum();
    outln!(
        fig,
        "completed {}  p99 {:.1} ms  violations {violations} ({:.3}%)  shed {}  energy {:.3e} J",
        report.completed,
        report.p99_ms,
        report.violation_ratio * 100.0,
        report.shed,
        report.energy_j
    );
    // One CSV row per 4 simulated hours (every 24th interval) plus the
    // totals row — compact enough to commit, dense enough to plot.
    let mut csv = Csv::new("hour,utilization,p99_ms,power_w,nodes_up,shed,violations,completed");
    for (i, r) in report.intervals.iter().enumerate() {
        if i % 24 == 0 {
            csv.row()
                .f(i as f64 / 6.0)
                .f(r.utilization)
                .f(r.p99_ms)
                .f(r.power_w)
                .n(r.nodes_up)
                .n(r.shed)
                .n(r.violations)
                .n(r.completed);
        }
    }
    let sim_s = trace.len() as f64 * SCALE_INTERVAL_MS / 1000.0;
    csv.row()
        .s("total")
        .f(offered / (max_rps * sim_s))
        .f(report.p99_ms)
        .f(report.energy_j / sim_s)
        .n(nodes)
        .n(report.shed)
        .n(violations)
        .n(report.completed);
    fig.save("scale_trace.csv", &csv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The files under `results/` that git tracks, or every file there
    /// when the tree is not a git checkout.
    fn committed_results() -> BTreeSet<String> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let git = std::process::Command::new("git")
            .args(["ls-files", "--", "results"])
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success() && !o.stdout.is_empty());
        match git {
            Some(o) => String::from_utf8(o.stdout)
                .expect("utf-8 paths")
                .lines()
                .filter_map(|l| l.strip_prefix("results/"))
                .map(String::from)
                .collect(),
            None => std::fs::read_dir(format!("{root}/results"))
                .expect("results directory")
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .collect(),
        }
    }

    #[test]
    fn every_committed_csv_is_declared_by_exactly_one_figure() {
        let committed = committed_results();
        for file in committed.iter().filter(|f| f.ends_with(".csv")) {
            let owners: Vec<&str> = FIGURES
                .iter()
                .filter(|f| f.outputs.iter().any(|(o, _)| o == file))
                .map(|f| f.name)
                .collect();
            assert_eq!(owners.len(), 1, "results/{file} is declared by {owners:?}");
        }
        for f in FIGURES {
            for (file, check) in f.outputs {
                if *check == Committed {
                    assert!(
                        committed.contains(*file),
                        "{}: results/{file} is not committed",
                        f.name
                    );
                }
            }
        }
    }

    #[test]
    fn figure_and_output_names_are_unique() {
        let mut outputs = BTreeSet::new();
        for f in FIGURES {
            for (file, _) in f.outputs {
                assert!(outputs.insert(*file), "{file} is declared twice");
            }
        }
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "a figure name repeats");
        assert!(!names.contains("all") && !names.contains("verify"));
    }
}
