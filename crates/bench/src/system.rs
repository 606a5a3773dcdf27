//! A "system under test": one benchmark application on one provisioned
//! leaf-node architecture, with its policy source (static baseline or the
//! Poly optimizer with feedback).

use poly_core::provision::{table_iii, Architecture, Setting};
use poly_core::{Candidates, NodeSetup, Optimizer};
use poly_dse::{DesignSpaceCache, Explorer, KernelDesignSpace};
use poly_ir::KernelGraph;
use poly_sim::{
    max_rps_under_qos, max_rps_under_qos_par, steady_state, EpCurve, EpPoint, Policy, SimReport,
};

/// Default measurement windows (ms of simulated time).
const WARMUP_MS: f64 = 5_000.0;
const WINDOW_MS: f64 = 25_000.0;

enum Source {
    /// Fixed policy for every load level (the homogeneous baselines).
    Static(Policy),
    /// Poly: pick a policy per load, with one feedback round per decision.
    Poly(Box<Feedback>),
}

/// The Poly source's state: the optimizer whose model the probes
/// correct, and its candidate policies for the node's pool. The
/// candidates depend on neither the load nor the model's correction, so
/// they are built on the first decision and re-selected at every later
/// one, as [`poly_core::ControlLoop`] does.
struct Feedback {
    optimizer: Optimizer,
    candidates: Option<Candidates>,
    builds: u64,
}

/// One application on one architecture, ready to measure.
pub struct System {
    /// Display name (`Homo-GPU`, `Homo-FPGA`, `Heter-Poly`).
    pub name: &'static str,
    /// The application under test.
    pub app: KernelGraph,
    /// The provisioned node.
    pub setup: NodeSetup,
    /// Explored per-kernel design spaces.
    pub spaces: Vec<KernelDesignSpace>,
    source: Source,
    bound_ms: f64,
    seed: u64,
}

impl System {
    /// Assemble the Table III node for `(setting, arch)` running `app`,
    /// exploring design spaces and fixing the baseline policy for
    /// homogeneous architectures.
    #[must_use]
    pub fn new(app: &KernelGraph, setting: Setting, arch: Architecture, bound_ms: f64) -> Self {
        let setup = table_iii(setting, arch);
        Self::with_setup(app, setup, bound_ms)
    }

    /// Assemble a system from an explicit node setup (used by the Fig. 13
    /// power-split sweep).
    #[must_use]
    pub fn with_setup(app: &KernelGraph, setup: NodeSetup, bound_ms: f64) -> Self {
        let explorer = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
        let spaces: Vec<KernelDesignSpace> =
            DesignSpaceCache::global().explore_graph(&explorer, app.kernels(), 1);
        let source = match setup.architecture {
            Architecture::HeterPoly => Source::Poly(Box::new(Feedback {
                optimizer: Optimizer::new(),
                candidates: None,
                builds: 0,
            })),
            Architecture::HomoGpu | Architecture::HomoFpga => {
                let policy = Optimizer::new().max_capacity_policy(
                    app,
                    &spaces,
                    &setup.pool,
                    &setup.gpu,
                    bound_ms,
                );
                Source::Static(policy)
            }
        };
        Self {
            name: setup.architecture.name(),
            app: app.clone(),
            setup,
            spaces,
            source,
            bound_ms,
            seed: 42,
        }
    }

    /// The QoS bound in force.
    #[must_use]
    pub fn bound_ms(&self) -> f64 {
        self.bound_ms
    }

    /// The policy the system would run at offered load `rps`. For Poly
    /// systems this runs one short probe simulation and feeds the result
    /// back into the model (the Fig. 2 feedback loop) before deciding.
    pub fn policy_at(&mut self, rps: f64) -> Policy {
        let fb = match &mut self.source {
            Source::Static(p) => return p.clone(),
            Source::Poly(fb) => fb,
        };
        let (app, pool, bound_ms) = (&self.app, &self.setup.pool, self.bound_ms);
        let candidates = fb.candidates.get_or_insert_with(|| {
            fb.builds += 1;
            fb.optimizer
                .candidates(app, &self.spaces, pool, &self.setup.gpu, bound_ms)
        });
        let select =
            |opt: &Optimizer| opt.select(candidates, app, pool, bound_ms, rps, f64::INFINITY);
        let (chosen, pred) = select(&fb.optimizer);
        let probe = steady_state(
            app,
            pool,
            &candidates.policies()[chosen],
            &self.setup.sim_config,
            rps,
            2_000.0,
            8_000.0,
            self.seed ^ 0x5eed,
        );
        if probe.completed > 0 && pred.p99_ms.is_finite() {
            fb.optimizer
                .model_mut()
                .observe(pred.p99_ms, probe.latency.p99());
        }
        let (chosen, _) = select(&fb.optimizer);
        candidates.policies()[chosen].clone()
    }

    /// How many times a Poly system built its optimizer's candidate set:
    /// once, on its first decision (always 0 for a static baseline).
    #[must_use]
    pub fn candidate_builds(&self) -> u64 {
        match &self.source {
            Source::Static(_) => 0,
            Source::Poly(fb) => fb.builds,
        }
    }

    /// Steady-state measurement at offered load `rps` (warmup discarded).
    pub fn measure(&mut self, rps: f64) -> SimReport {
        let policy = self.policy_at(rps);
        steady_state(
            &self.app,
            &self.setup.pool,
            &policy,
            &self.setup.sim_config,
            rps,
            WARMUP_MS,
            WINDOW_MS,
            self.seed,
        )
    }

    /// Maximum sustainable RPS whose measured p99 stays within the bound.
    pub fn max_rps(&mut self) -> f64 {
        let bound = self.bound_ms;
        max_rps_under_qos(|rps| self.measure(rps), bound, 0.5, 400.0, 0.03)
    }

    /// [`System::max_rps`] with up to `jobs` concurrent simulations.
    ///
    /// Static-policy systems evaluate loads with a pure function (fixed
    /// policy, fixed seed), so the speculative parallel bisection applies
    /// and the result is bit-identical to the serial search. Poly systems
    /// run a feedback round per decision — their measurement sequence is
    /// order-dependent — so they always take the serial path, whatever
    /// `jobs` says.
    pub fn max_rps_jobs(&mut self, jobs: usize) -> f64 {
        match &self.source {
            Source::Static(policy) => {
                let policy = policy.clone();
                let (app, setup, seed) = (&self.app, &self.setup, self.seed);
                max_rps_under_qos_par(
                    jobs,
                    |rps| {
                        steady_state(
                            app,
                            &setup.pool,
                            &policy,
                            &setup.sim_config,
                            rps,
                            WARMUP_MS,
                            WINDOW_MS,
                            seed,
                        )
                    },
                    self.bound_ms,
                    0.5,
                    400.0,
                    0.03,
                )
            }
            Source::Poly(_) => self.max_rps(),
        }
    }

    /// Power-vs-load curve at fractions of `max_rps` — the EP curve of
    /// Figs. 1(b), 9, 10.
    pub fn ep_curve(&mut self, max_rps: f64, points: usize) -> EpCurve {
        let points = points.max(2);
        let samples: Vec<EpPoint> = (0..points)
            .map(|i| {
                let load = i as f64 / (points - 1) as f64;
                let rps = (max_rps * load).max(0.01);
                let report = self.measure(rps);
                EpPoint {
                    load,
                    power_w: report.avg_power_w,
                }
            })
            .collect();
        EpCurve::new(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homo_systems_use_fixed_policies() {
        let app = poly_apps::asr();
        let mut s = System::new(&app, Setting::I, Architecture::HomoFpga, 200.0);
        let a = s.policy_at(1.0);
        let b = s.policy_at(100.0);
        assert_eq!(a, b, "static baseline never re-plans");
        assert_eq!(s.name, "Homo-FPGA");
    }

    /// The decision `policy_at` made before the candidates were cached:
    /// plan, probe, feed the probe back, and plan again from scratch.
    fn planned_from_scratch(opt: &mut Optimizer, sys: &System, rps: f64) -> Policy {
        let plan = |opt: &mut Optimizer| {
            opt.plan_for_load(
                &sys.app,
                &sys.spaces,
                &sys.setup.pool,
                &sys.setup.gpu,
                sys.bound_ms,
                rps,
            )
        };
        let (policy, pred) = plan(opt);
        let probe = steady_state(
            &sys.app,
            &sys.setup.pool,
            &policy,
            &sys.setup.sim_config,
            rps,
            2_000.0,
            8_000.0,
            sys.seed ^ 0x5eed,
        );
        if probe.completed > 0 && pred.p99_ms.is_finite() {
            opt.model_mut().observe(pred.p99_ms, probe.latency.p99());
        }
        plan(opt).0
    }

    /// Each probe of a capacity search picks what a from-scratch
    /// `plan_for_load` picks after the same feedback, and the whole
    /// search builds the candidates once. On FQT the feedback round
    /// changes some picks, so a decision that skipped the re-plan after
    /// the probe fails here.
    #[test]
    fn poly_capacity_search_builds_candidates_once_and_plans_as_from_scratch() {
        for app in [poly_apps::asr(), poly_apps::fqt()] {
            let new = || System::new(&app, Setting::I, Architecture::HeterPoly, 200.0);
            let mut sys = new();
            let mut reference = Optimizer::new();
            let mut probes = 0;
            let searched = max_rps_under_qos(
                |rps| {
                    probes += 1;
                    let want = planned_from_scratch(&mut reference, &sys, rps);
                    let policy = sys.policy_at(rps);
                    assert_eq!(policy, want, "{} probe {probes} at {rps} RPS", app.name());
                    steady_state(
                        &sys.app,
                        &sys.setup.pool,
                        &policy,
                        &sys.setup.sim_config,
                        rps,
                        WARMUP_MS,
                        WINDOW_MS,
                        sys.seed,
                    )
                },
                200.0,
                0.5,
                400.0,
                0.03,
            );
            assert!(probes > 5, "a real bisection: {probes} probes");
            assert_eq!(sys.candidate_builds(), 1);

            let mut fresh = new();
            assert_eq!(fresh.max_rps().to_bits(), searched.to_bits());
            assert_eq!(fresh.candidate_builds(), 1, "max_rps plans once per pool");
        }
        let homo = System::new(&poly_apps::asr(), Setting::I, Architecture::HomoGpu, 200.0);
        assert_eq!(homo.candidate_builds(), 0, "a static baseline never plans");
    }

    #[test]
    fn measurement_reports_sane_numbers() {
        let app = poly_apps::asr();
        let mut s = System::new(&app, Setting::I, Architecture::HomoFpga, 200.0);
        let r = s.measure(5.0);
        assert!(r.completed > 0);
        assert!(r.avg_power_w > 0.0);
        assert!(r.latency.p99() > 0.0);
    }
}
