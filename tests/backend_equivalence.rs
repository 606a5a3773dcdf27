//! Backend-layer equivalence and determinism contracts:
//!
//! - the analytical backend is *bit-identical* to the default path: a
//!   trace replay on a node that names it explicitly equals the default
//!   replay bit for bit, and re-timing a policy for it is the identity;
//! - the CPU backend really executes (measured wall clock, non-zero
//!   checksums) and is reproducible: replays driven by one shared client
//!   are bit-identical, and at light load completion counts do not
//!   depend on the latency samples drawn.

use std::sync::Arc;

use poly::apps::{asr, QOS_BOUND_MS};
use poly::backend::{CpuClient, ExecBackend};
use poly::core::provision::{table_iii, Architecture, Setting};
use poly::core::{retime_policy, AppContext, PolyRuntime, RunSpec, TraceReport};
use poly::dse::Explorer;
use poly::sim::workload::TracePoint;
use poly::sim::Policy;

const INTERVAL_MS: f64 = 10_000.0;

fn heter() -> (
    poly::ir::KernelGraph,
    Vec<poly::dse::KernelDesignSpace>,
    poly::core::NodeSetup,
) {
    let app = asr();
    let setup = table_iii(Setting::I, Architecture::HeterPoly);
    let ex = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let spaces = app.kernels().iter().map(|k| ex.explore(k)).collect();
    (app, spaces, setup)
}

fn flat_trace(n: usize, util: f64) -> Vec<TracePoint> {
    (0..n)
        .map(|i| TracePoint {
            start_ms: i as f64 * INTERVAL_MS,
            utilization: util,
        })
        .collect()
}

/// Replay `trace` at `max_rps` on a Setting-I heterogeneous node whose
/// setup runs `backend` (`None` keeps the provisioned default).
fn replay_on(
    backend: Option<ExecBackend>,
    trace: &[TracePoint],
    interval_ms: f64,
    max_rps: f64,
    seed: u64,
) -> TraceReport {
    let (app, spaces, mut setup) = heter();
    if let Some(backend) = backend {
        setup.backend = backend;
    }
    let mut rt = PolyRuntime::new(AppContext::new(app, spaces, setup, QOS_BOUND_MS));
    rt.run(&RunSpec::new(trace, interval_ms, max_rps).seed(seed))
}

/// A short trace replayed on a node whose setup explicitly sets the
/// analytical backend is bit-identical to the default replay, and
/// re-timing any policy for the analytical backend is the identity.
#[test]
fn analytical_trace_replay_is_bit_identical_to_default() {
    let trace = flat_trace(4, 0.4);
    let default = replay_on(None, &trace, INTERVAL_MS, 20.0, 42);
    let explicit = replay_on(Some(ExecBackend::Analytical), &trace, INTERVAL_MS, 20.0, 42);
    assert_eq!(default, explicit);

    // retime_policy(Analytical) is the identity on any policy.
    let (app, spaces, setup) = heter();
    let plan = poly::sched::Scheduler::default()
        .plan_latency(&app, &spaces, &setup.pool)
        .expect("plan");
    let policy = Policy::from_plan(&plan, &spaces, &setup.gpu);
    let same = retime_policy(&policy, &ExecBackend::Analytical, &app);
    assert_eq!(policy, same);
}

/// The CPU backend really executes: retimed policies carry measured
/// timings and host power figures, batch collapsed to 1.
#[test]
fn cpu_backend_retimes_policies_from_real_execution() {
    let (app, spaces, setup) = heter();
    let client = Arc::new(CpuClient::new(2));
    let plan = poly::sched::Scheduler::default()
        .plan_latency(&app, &spaces, &setup.pool)
        .expect("plan");
    let policy = Policy::from_plan(&plan, &spaces, &setup.gpu);
    let retimed = retime_policy(&policy, &ExecBackend::Cpu(Arc::clone(&client)), &app);
    assert_eq!(retimed.len(), policy.len());
    for (before, after) in policy.impls().iter().zip(retimed.impls()) {
        // Platform assignment untouched; timing replaced by measurement.
        assert_eq!(before.kind, after.kind);
        assert_eq!(before.impl_index, after.impl_index);
        assert_eq!(after.batch, 1);
        assert!(after.latency_ms > 0.0);
        assert_eq!(after.latency_ms.to_bits(), after.service_ms.to_bits());
        assert_eq!(
            after.active_power_w.to_bits(),
            poly::backend::CPU_PEAK_POWER_W
                .min(after.active_power_w)
                .to_bits()
        );
        // The measurement is cached: re-timing again is bit-stable.
        let k = &app.kernels()[after.kernel.0];
        let report = client.measure(k.name(), &k.profile());
        assert_eq!(report.latency_ms.to_bits(), after.latency_ms.to_bits());
        assert!(report.checksum.abs() > 0.0, "real work must have happened");
    }
}

/// Two trace replays driven by one shared CPU client are bit-identical:
/// the client caches each kernel's first measurement, so the whole
/// process is deterministic even though the wall-clock samples inside
/// it were measured. The host runs the ASR kernels in tens of seconds
/// (vs. milliseconds on the accelerators), so the trace uses hour-scale
/// intervals and a very light load.
#[test]
fn cpu_backend_replays_are_reproducible() {
    const CPU_INTERVAL_MS: f64 = 7_200_000.0;
    let trace: Vec<TracePoint> = (0..3)
        .map(|i| TracePoint {
            start_ms: i as f64 * CPU_INTERVAL_MS,
            utilization: 0.5,
        })
        .collect();
    let run = |backend: ExecBackend| -> TraceReport {
        replay_on(Some(backend), &trace, CPU_INTERVAL_MS, 0.001, 7)
    };
    let client = Arc::new(CpuClient::new(2));
    let first = run(ExecBackend::Cpu(Arc::clone(&client)));
    let second = run(ExecBackend::Cpu(Arc::clone(&client)));
    assert_eq!(first, second, "shared-client replays must be bit-identical");
    let completed: usize = first.intervals.iter().map(|r| r.completed).sum();
    assert!(completed > 0, "the measured node must make progress");
}

/// Latency samples may vary between measurements; the computed results
/// must not: fresh clients with different thread counts produce
/// bit-identical checksums for every application kernel.
#[test]
fn cpu_checksums_are_thread_and_sample_independent() {
    let app = asr();
    let c1 = CpuClient::new(1);
    let c4 = CpuClient::new(4);
    for k in app.kernels() {
        let p = k.profile();
        let r1 = c1.measure(k.name(), &p);
        let r4 = c4.measure(k.name(), &p);
        assert!(r1.latency_ms > 0.0 && r4.latency_ms > 0.0);
        assert_eq!(
            r1.checksum.to_bits(),
            r4.checksum.to_bits(),
            "{}: results must not depend on thread count",
            k.name()
        );
    }
}

/// A mixed fleet: one node on the analytical backend, one on the CPU
/// backend, driven by the same cluster. Both make progress, and the
/// replay is reproducible when the measured node shares its client.
#[test]
fn mixed_fleet_runs_both_backends_side_by_side() {
    use poly::cluster::{Cluster, ClusterConfig, ClusterRunSpec, RoutingPolicy};
    let (app, spaces, setup) = heter();
    let client = Arc::new(CpuClient::new(2));
    let run = || {
        let mut measured = setup.clone();
        measured.backend = ExecBackend::Cpu(Arc::clone(&client));
        let mut cl = Cluster::try_new(
            &app,
            &spaces,
            vec![setup.clone(), measured],
            ClusterConfig {
                bound_ms: QOS_BOUND_MS,
                routing: RoutingPolicy::JoinShortestQueue,
                power_budget_w: 1000.0,
                node_floor_w: 40.0,
                max_backlog: 512,
                lifecycle: poly::sim::LifecycleConfig::default(),
                breaker: None,
            },
        )
        .expect("valid cluster configuration");
        cl.run(ClusterRunSpec::new(&flat_trace(3, 0.3), INTERVAL_MS, 16.0).seed(2011))
            .expect("valid mixed-fleet run")
    };
    let first = run();
    assert!(first.intervals.iter().all(|r| r.completed > 0));
    assert!(first.p99_ms > 0.0);
    let second = run();
    assert_eq!(first, second, "mixed-fleet replay must be bit-identical");
}
