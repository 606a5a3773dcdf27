//! Complexity gate for the engine's queue operations: the queue entries
//! touched per dispatch pricing, batch formation, cancellation and margin
//! walk must stay under one constant whether a node queues ten work
//! items or ten thousand.
//!
//! The counts come from `Simulator::work_counters`, which depends only on
//! the simulated inputs, so the gate is exact on any host. Each case is
//! one Setting-I Heter-Poly ASR node:
//!
//! - **plain** (the overloaded-fleet shape: static plan, no deadlines):
//!   one simulator is overloaded until its queue passes each target
//!   depth, then fed at about its capacity for a measuring window, so
//!   every window sees the same offered load at a different depth;
//! - **lifecycle** (deadlines, hedging, and the dynamic chooser with its
//!   top-k alternates, stealing and downstream-margin walks): one
//!   overloaded simulator per depth, whose deadline is sized so that the
//!   queue settles near the target depth while requests keep timing out
//!   — cancellation runs at every depth.
//!
//! Run it with `--release --nocapture` to print the per-depth table.

use poly::apps::{asr, QOS_BOUND_MS};
use poly::core::provision::{table_iii, Architecture, Setting};
use poly::core::Optimizer;
use poly::dse::Explorer;
use poly::sim::workload::poisson;
use poly::sim::{
    DynamicDispatch, HedgeConfig, LifecycleConfig, OpCount, Policy, SimConfig, Simulator,
    WorkCounters,
};

/// The one bound on mean entries visited per operation, at every depth.
/// Batch formation moves each batched entry once (plus a short walk of
/// its request's chain), so its mean is bounded by the widest batch;
/// every other operation visits a handful of index entries.
const MAX_ENTRIES_PER_EVENT: f64 = 64.0;

/// Target queue depths, in queued work items.
const DEPTHS: [usize; 3] = [10, 1_000, 10_000];

/// Offered load while the queue grows, as a multiple of capacity.
const OVERLOAD: f64 = 2.0;

struct Node {
    app: poly::ir::KernelGraph,
    setup: poly::core::NodeSetup,
    spaces: Vec<poly::dse::KernelDesignSpace>,
    policy: Policy,
    capacity_rps: f64,
}

fn node() -> Node {
    let app = asr();
    let setup = table_iii(Setting::I, Architecture::HeterPoly);
    let ex = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let spaces: Vec<_> = app.kernels().iter().map(|k| ex.explore(k)).collect();
    let mut opt = Optimizer::new();
    // Plan for well beyond the node's capacity: the plan an overloaded
    // node runs.
    let (_, probe) = opt.plan_for_load(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS, 1.0);
    let (policy, pred) = opt.plan_for_load(
        &app,
        &spaces,
        &setup.pool,
        &setup.gpu,
        QOS_BOUND_MS,
        probe.capacity_rps.max(1.0) * 4.0,
    );
    assert!(pred.capacity_rps > 1.0, "a serving plan exists");
    Node {
        app,
        setup,
        spaces,
        policy,
        capacity_rps: pred.capacity_rps,
    }
}

/// Feed `rps` of Poisson arrivals for `ms` from the simulator's clock and
/// advance through them.
fn feed(sim: &mut Simulator, rps: f64, ms: f64, seed: u64) {
    let t0 = sim.now();
    let times: Vec<f64> = poisson(rps, ms, seed).into_iter().map(|t| t + t0).collect();
    sim.enqueue_arrivals(&times);
    sim.advance_to(t0 + ms);
}

/// Per-depth work of one case.
struct Row {
    depth: usize,
    work: WorkCounters,
}

fn categories(w: &WorkCounters) -> [(&'static str, OpCount); 4] {
    [
        ("dispatch", w.dispatch),
        ("batch", w.batch),
        ("cancel", w.cancel),
        ("margin", w.margin),
    ]
}

fn report(case: &str, rows: &[Row]) {
    eprintln!("{case}: depth | events/entries per category (entries per event)");
    for r in rows {
        let cells: Vec<String> = categories(&r.work)
            .iter()
            .map(|(name, c)| format!("{name} {}/{} ({:.2})", c.events, c.entries, c.per_event()))
            .collect();
        eprintln!("  {:>6} | {}", r.depth, cells.join(", "));
    }
}

fn assert_flat(case: &str, rows: &[Row], must_run: &[&str]) {
    report(case, rows);
    for r in rows {
        for (name, c) in categories(&r.work) {
            if must_run.contains(&name) {
                assert!(
                    c.events > 0,
                    "{case}: no {name} events at depth {}",
                    r.depth
                );
            }
            assert!(
                c.per_event() <= MAX_ENTRIES_PER_EVENT,
                "{case}: {name} touched {:.1} entries per event at depth {} (bound {MAX_ENTRIES_PER_EVENT})",
                c.per_event(),
                r.depth
            );
        }
    }
}

#[test]
fn plain_overload_touches_constant_entries_per_event() {
    let n = node();
    let mut sim = Simulator::new(
        n.app.clone(),
        &n.setup.pool,
        n.policy.clone(),
        n.setup.sim_config.clone(),
    );
    let mut seed = 1;
    let mut rows = Vec::new();
    for depth in DEPTHS {
        // Grow the queue past the target in 1 s steps of overload (the
        // shallowest target is reached by a short warm-up at capacity).
        while sim.queued() < depth {
            let rps = if depth <= 10 { 1.0 } else { OVERLOAD } * n.capacity_rps;
            feed(&mut sim, rps, 1_000.0, seed);
            seed += 1;
        }
        let at = sim.queued();
        let before = sim.work_counters();
        feed(&mut sim, n.capacity_rps, 2_000.0, seed);
        seed += 1;
        rows.push(Row {
            depth: at,
            work: sim.work_counters().delta(&before),
        });
    }
    assert!(
        rows[2].depth >= 10_000,
        "deepest window starts at {}",
        rows[2].depth
    );
    assert_flat("plain", &rows, &["dispatch", "batch"]);
}

#[test]
fn lifecycle_overload_touches_constant_entries_per_event() {
    let n = node();
    let policy = n
        .policy
        .with_alternates(&n.spaces, &n.setup.gpu, QOS_BOUND_MS, 3);
    let mut rows = Vec::new();
    for depth in DEPTHS {
        // A request holds about 2.5 queued work items while it waits, so
        // a deadline of 0.4 × depth / capacity makes the overloaded queue
        // settle near `depth` while timeouts cancel work continuously.
        let wait_ms = 0.4 * depth as f64 / n.capacity_rps * 1000.0;
        let config = SimConfig {
            lifecycle: LifecycleConfig {
                deadline_factor: Some(wait_ms / QOS_BOUND_MS),
                hedge: Some(HedgeConfig::default()),
                ..LifecycleConfig::default()
            },
            dynamic: Some(DynamicDispatch::default()),
            ..n.setup.sim_config.clone()
        };
        let mut sim = Simulator::new(n.app.clone(), &n.setup.pool, policy.clone(), config);
        let fill_ms = (2.0 * wait_ms).max(4_000.0);
        feed(&mut sim, OVERLOAD * n.capacity_rps, fill_ms, depth as u64);
        let at = sim.queued();
        let before = sim.work_counters();
        feed(
            &mut sim,
            OVERLOAD * n.capacity_rps,
            2_000.0,
            depth as u64 + 1,
        );
        rows.push(Row {
            depth: at,
            work: sim.work_counters().delta(&before),
        });
        sim.drain();
        sim.audit().check().expect("audit invariants hold");
    }
    assert!(
        rows[2].depth >= 5_000,
        "deepest window starts at {}",
        rows[2].depth
    );
    assert_flat(
        "lifecycle",
        &rows,
        &["dispatch", "batch", "cancel", "margin"],
    );
}
