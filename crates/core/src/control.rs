//! The re-planning control loop (monitor → model → optimizer) that runs
//! once per interval, shared by [`PolyRuntime`](crate::PolyRuntime) and
//! every tenant of a cluster node.
//!
//! One [`ControlLoop`] holds the optimizer and monitor for one
//! application on one node, the policy currently adopted with its
//! prediction, and the pool the last plan was made against. A loop lives
//! for one replay: [`ControlLoop::begin`] builds it with the replay's
//! first policy adopted, so every replay starts from a fresh monitor and
//! a fresh model. At each interval boundary [`ControlLoop::replan`]
//! re-plans from the monitor's load estimate. A degraded pool or a
//! forced re-plan adopts the new plan unconditionally; otherwise a
//! change-hysteresis keeps the current policy unless it is about to
//! violate QoS (or overruns the power cap) or the candidate saves a
//! meaningful amount of power. After the interval,
//! [`ControlLoop::observe`] feeds the measurements back into the monitor
//! and the model.

use crate::{
    retime_policy, AppContext, Candidates, IntervalObs, Optimizer, PolicyPrediction, SystemMonitor,
};
use poly_sched::Pool;
use poly_sim::{Policy, Simulator};

/// Alternates the dispatch-time chooser keeps per kernel when the
/// dynamic layer is enabled (primary + up to three fallbacks — enough
/// to retain both the min-latency and the most-efficient implementation
/// of each platform).
const DYNAMIC_TOP_K: usize = 4;

/// One application's re-planning loop on one node.
#[derive(Debug)]
pub struct ControlLoop {
    optimizer: Optimizer,
    monitor: SystemMonitor,
    /// Power cap plans must fit; `None` plans uncapped.
    cap_w: Option<f64>,
    /// Set when the cap moved materially or the node came back — the
    /// next [`replan`](Self::replan) adopts its plan unconditionally.
    force_replan: bool,
    /// Whether adopted policies carry dispatch-time alternates.
    alternates: bool,
    policy: Policy,
    predicted: PolicyPrediction,
    /// Pool the last plan was made against; divergence from the
    /// simulator's available pool forces a re-plan.
    avail: Pool,
    /// The optimizer's candidate policies for `avail` — the
    /// load-independent half of a plan. Built by the first plan of the
    /// replay and after a pool change; every other re-plan only
    /// re-selects among them at the new load.
    candidates: Option<Candidates>,
    /// How many times the candidate set was built.
    candidate_builds: u64,
    /// Whether the last boundary adopted a different policy.
    changed: bool,
    /// Why the last boundary planned the way it did (telemetry).
    reason: &'static str,
    /// Load estimate the last boundary planned for (telemetry).
    est_rps: f64,
}

impl ControlLoop {
    /// The loop of one replay of `ctx`'s application, with its initial
    /// policy for `first_rps` on the node's full pool adopted: the
    /// optimizer's plan, or `pinned` when given (a static baseline, which
    /// the caller must never [`replan`](Self::replan)). With `cap_w` set,
    /// every plan must fit that power cap and a policy overrunning it is
    /// not held; `None` plans uncapped. Every adopted policy carries the
    /// design spaces' top-k alternates when `alternates` is set, and is
    /// re-timed for the node's [`NodeSetup::backend`](crate::NodeSetup)
    /// (identity on the analytical backend); [`policy`](Self::policy)
    /// hands the first one to the replay's simulator.
    #[must_use]
    pub fn begin(
        ctx: &AppContext,
        cap_w: Option<f64>,
        first_rps: f64,
        pinned: Option<&Policy>,
        alternates: bool,
    ) -> Self {
        let optimizer = Optimizer::new();
        let avail = ctx.setup().pool.clone();
        let (candidates, (policy, predicted), reason) = match pinned {
            Some(p) => {
                let pred = optimizer.model().predict(ctx.graph(), p, &avail, first_rps);
                (None, (p.clone(), pred), "static")
            }
            None => {
                let candidates = build_candidates(&optimizer, ctx, &avail);
                let plan = select(&optimizer, &candidates, ctx, &avail, cap_w, first_rps);
                (Some(candidates), plan, "initial")
            }
        };
        Self {
            policy: adopt(ctx, alternates, policy),
            predicted,
            candidate_builds: u64::from(candidates.is_some()),
            candidates,
            optimizer,
            monitor: SystemMonitor::new(),
            cap_w,
            force_replan: false,
            alternates,
            avail,
            changed: false,
            reason,
            est_rps: first_rps,
        }
    }

    /// The adopted policy.
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// How many times the loop built the optimizer's candidate set: once
    /// when [`begin`](Self::begin) plans and once per pool change.
    #[must_use]
    pub fn candidate_builds(&self) -> u64 {
        self.candidate_builds
    }

    /// The monitor's smoothed load estimate, in RPS.
    #[must_use]
    pub fn load_estimate_rps(&self) -> f64 {
        self.monitor.load_estimate_rps()
    }

    /// The prediction for the adopted policy.
    #[must_use]
    pub fn predicted(&self) -> &PolicyPrediction {
        &self.predicted
    }

    /// The predicted p99 of the adopted policy, in ms.
    #[must_use]
    pub fn predicted_p99_ms(&self) -> f64 {
        self.predicted.p99_ms
    }

    /// Whether the last boundary adopted a different policy.
    #[must_use]
    pub fn changed(&self) -> bool {
        self.changed
    }

    /// Why the last boundary planned the way it did: `initial`, `hold`,
    /// `degraded`, `forced`, `qos-pressure`, `power-save`,
    /// `outage-hold`, or a label given to [`hold`](Self::hold).
    #[must_use]
    pub fn reason(&self) -> &'static str {
        self.reason
    }

    /// The load estimate the last boundary planned for, in RPS.
    #[must_use]
    pub fn est_rps(&self) -> f64 {
        self.est_rps
    }

    /// Impose a new power cap. A materially different cap (> 5%
    /// relative move) forces a re-plan at the next boundary; jitter below
    /// that is absorbed to avoid reconfiguration churn.
    pub fn set_cap(&mut self, cap_w: f64) {
        if self
            .cap_w
            .is_none_or(|prev| (cap_w - prev).abs() > 0.05 * prev.max(1.0))
        {
            self.force_replan = true;
        }
        self.cap_w = Some(cap_w);
    }

    /// Force the next [`replan`](Self::replan) to adopt its plan
    /// unconditionally (the node returns cold).
    pub fn force_replan(&mut self) {
        self.force_replan = true;
    }

    /// Plan on the current pool for `est_rps`, under the cap if any:
    /// exactly [`Optimizer::plan_for_load_capped`], with the candidate set
    /// built only when the pool has changed since it was last built.
    fn plan(&mut self, ctx: &AppContext, est_rps: f64) -> (Policy, PolicyPrediction) {
        let candidates = self.candidates.get_or_insert_with(|| {
            self.candidate_builds += 1;
            build_candidates(&self.optimizer, ctx, &self.avail)
        });
        select(
            &self.optimizer,
            candidates,
            ctx,
            &self.avail,
            self.cap_w,
            est_rps,
        )
    }

    /// Re-plan for the coming interval from the load estimate `est_rps`,
    /// installing any change into `sim`. Returns whether the policy
    /// changed.
    ///
    /// A fault since the last plan (the simulator's available pool
    /// diverged) or a forced re-plan adopts the new plan unconditionally
    /// — a failure is never "not worthwhile". With nothing left to plan
    /// on, the current (inert) policy rides out the outage.
    pub fn replan(&mut self, ctx: &AppContext, sim: &mut Simulator, est_rps: f64) -> bool {
        self.changed = false;
        self.est_rps = est_rps;
        let now_avail = sim.available_pool();
        let degraded = now_avail != self.avail;
        if degraded {
            self.avail = now_avail;
            self.candidates = None;
        }
        let force = std::mem::take(&mut self.force_replan);
        if self.avail.is_empty() {
            self.reason = "outage-hold";
            return false;
        }
        let (next, pred) = self.plan(ctx, est_rps);
        let next = adopt(ctx, self.alternates, next);
        let policy = &self.policy;
        let adopt = if degraded || force {
            self.reason = if degraded { "degraded" } else { "forced" };
            true
        } else {
            // Hysteresis: a policy change pays FPGA reconfiguration and
            // transient tail spikes, so keep the current policy unless it
            // is about to violate QoS — or, under a cap, overruns it by
            // more than 5% — or the candidate saves a meaningful amount
            // of power.
            let cur_pred =
                self.optimizer
                    .model()
                    .predict(ctx.graph(), policy, &self.avail, est_rps);
            let cur_ok = cur_pred.p99_ms <= ctx.bound_ms() * 0.85
                && cur_pred.bottleneck_util <= 0.85
                && self
                    .cap_w
                    .is_none_or(|cap| cur_pred.avg_power_w <= cap * 1.05);
            let worthwhile = pred.avg_power_w < cur_pred.avg_power_w * 0.92;
            if next != *policy && (!cur_ok || worthwhile) {
                self.reason = if cur_ok { "power-save" } else { "qos-pressure" };
                true
            } else {
                self.reason = "hold";
                self.predicted = cur_pred;
                false
            }
        };
        if adopt {
            if next != *policy {
                self.changed = true;
                sim.set_policy(next.clone());
                self.policy = next;
            }
            self.predicted = pred;
        }
        self.changed
    }

    /// Hold the current policy through a boundary for `reason` (e.g. the
    /// node is down, or the policy is a static baseline), recording
    /// `est_rps` as the interval's load estimate.
    pub fn hold(&mut self, est_rps: f64, reason: &'static str) {
        self.changed = false;
        self.est_rps = est_rps;
        self.reason = reason;
    }

    /// Feed one interval's measurements back: into the monitor always,
    /// and into the model's correction loop when the interval is
    /// statistically sound (at least 30 completions) and free of a
    /// policy transition's reconfiguration spike. Returns the fed-back
    /// prediction's relative error (capped at 1), or `None` when the
    /// interval was not fed back.
    pub fn observe(&mut self, obs: IntervalObs) -> Option<f64> {
        let predicted = self.predicted_p99_ms();
        let err = (obs.completed >= 30 && !self.changed && predicted.is_finite()).then(|| {
            self.optimizer.model_mut().observe(predicted, obs.p99_ms);
            ((obs.p99_ms - predicted) / obs.p99_ms.max(1e-9))
                .abs()
                .min(1.0)
        });
        self.monitor.observe(obs);
        err
    }
}

/// The optimizer's candidate policies for `ctx` on `avail`.
fn build_candidates(optimizer: &Optimizer, ctx: &AppContext, avail: &Pool) -> Candidates {
    optimizer.candidates(
        ctx.graph(),
        ctx.spaces(),
        avail,
        &ctx.setup().gpu,
        ctx.bound_ms(),
    )
}

/// The policy `optimizer` selects among `candidates` on `avail` for
/// `est_rps` under `cap_w` (uncapped when `None`), with its prediction.
fn select(
    optimizer: &Optimizer,
    candidates: &Candidates,
    ctx: &AppContext,
    avail: &Pool,
    cap_w: Option<f64>,
    est_rps: f64,
) -> (Policy, PolicyPrediction) {
    let (chosen, prediction) = optimizer.select(
        candidates,
        ctx.graph(),
        avail,
        ctx.bound_ms(),
        est_rps,
        cap_w.unwrap_or(f64::INFINITY),
    );
    (candidates.policies()[chosen].clone(), prediction)
}

/// Make a planned policy adoptable: attach alternates when `alternates`
/// is set, then re-time for the node's backend.
fn adopt(ctx: &AppContext, alternates: bool, policy: Policy) -> Policy {
    let policy = if alternates {
        policy.with_alternates(
            ctx.spaces(),
            &ctx.setup().gpu,
            ctx.bound_ms(),
            DYNAMIC_TOP_K,
        )
    } else {
        policy
    };
    retime_policy(&policy, &ctx.setup().backend, ctx.graph())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provision::{table_iii, Architecture, Setting};
    use poly_dse::Explorer;
    use poly_sim::FaultPlan;

    fn ctx() -> AppContext {
        let app = poly_apps::asr();
        let setup = table_iii(Setting::I, Architecture::HeterPoly);
        let ex = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
        let spaces = app.kernels().iter().map(|k| ex.explore(k)).collect();
        AppContext::new(app, spaces, setup, 200.0)
    }

    fn started(ctx: &AppContext, cap_w: Option<f64>) -> (ControlLoop, Simulator) {
        let control = ControlLoop::begin(ctx, cap_w, 10.0, None, false);
        let sim = Simulator::new(
            ctx.graph_owned(),
            &ctx.setup().pool,
            control.policy().clone(),
            ctx.setup().sim_config.clone(),
        );
        (control, sim)
    }

    #[test]
    fn material_cap_moves_force_a_replan_and_jitter_does_not() {
        let ctx = ctx();
        let cap = ctx.setup().power_cap_w;
        let (mut control, mut sim) = started(&ctx, Some(cap));
        assert_eq!(control.reason(), "initial");
        control.set_cap(cap * 1.02);
        control.replan(&ctx, &mut sim, 10.0);
        assert_ne!(control.reason(), "forced", "2% jitter is absorbed");
        control.set_cap(cap * 0.5);
        control.replan(&ctx, &mut sim, 10.0);
        assert_eq!(control.reason(), "forced");
        // The force is spent by the re-plan that honored it.
        control.replan(&ctx, &mut sim, 10.0);
        assert_ne!(control.reason(), "forced");
    }

    /// Re-plan `control` at `rps` with the plan adopted unconditionally,
    /// and check it adopted exactly what a fresh, uncached
    /// `plan_for_load_capped` picks on the simulator's pool with the
    /// loop's cap and model state.
    fn replan_matches_a_fresh_plan(
        ctx: &AppContext,
        control: &mut ControlLoop,
        sim: &mut Simulator,
        rps: f64,
    ) {
        let mut fresh = control.optimizer.clone();
        let (want, want_pred) = fresh.plan_for_load_capped(
            ctx.graph(),
            ctx.spaces(),
            &sim.available_pool(),
            &ctx.setup().gpu,
            ctx.bound_ms(),
            rps,
            control.cap_w.unwrap_or(f64::INFINITY),
        );
        control.force_replan();
        control.replan(ctx, sim, rps);
        assert_eq!(
            control.policy(),
            &adopt(ctx, control.alternates, want),
            "at {rps} RPS"
        );
        assert_eq!(control.predicted(), &want_pred, "at {rps} RPS");
    }

    #[test]
    fn cached_candidates_adopt_what_a_fresh_plan_picks() {
        let ctx = ctx();
        let cap = ctx.setup().power_cap_w;
        let (mut control, mut sim) = started(&ctx, Some(cap));
        assert_eq!(control.candidate_builds(), 1, "begin builds the set");
        let sweep = [2.0, 10.0, 25.0, 40.0, 60.0, 80.0, 120.0, 400.0];
        // A load sweep with the model's correction moving between plans.
        for (i, &rps) in sweep.iter().enumerate() {
            replan_matches_a_fresh_plan(&ctx, &mut control, &mut sim, rps);
            // Feed the model even after a policy change.
            control.changed = false;
            control.observe(IntervalObs {
                duration_ms: 10_000.0,
                arrived: 100,
                completed: 100,
                p99_ms: 40.0 + 30.0 * i as f64,
                queued: 0,
            });
        }
        // Unforced re-plans (hysteresis) select from the same set.
        for &rps in &sweep {
            control.replan(&ctx, &mut sim, rps);
        }
        // A cap move re-selects; it does not rebuild.
        control.set_cap(cap * 0.4);
        for &rps in &sweep {
            replan_matches_a_fresh_plan(&ctx, &mut control, &mut sim, rps);
        }
        assert_eq!(
            control.candidate_builds(),
            1,
            "a faultless replay builds once"
        );

        // A fail-stop changes the pool: one rebuild, then selection only.
        sim.inject_faults(&FaultPlan::new().fail_stop(1_000.0, 0));
        sim.advance_to(2_000.0);
        let degraded = sim.available_pool();
        assert!(degraded != ctx.setup().pool && !degraded.is_empty());
        for &rps in &sweep {
            replan_matches_a_fresh_plan(&ctx, &mut control, &mut sim, rps);
        }
        assert_eq!(control.candidate_builds(), 2, "the fault builds once more");

        // Recovery changes it back: one more rebuild.
        sim.inject_faults(&FaultPlan::new().recover(3_000.0, 0));
        sim.advance_to(4_000.0);
        assert_eq!(sim.available_pool(), ctx.setup().pool);
        for &rps in &sweep {
            replan_matches_a_fresh_plan(&ctx, &mut control, &mut sim, rps);
        }
        assert_eq!(
            control.candidate_builds(),
            3,
            "the recovery builds once more"
        );
    }

    #[test]
    fn hold_keeps_the_policy_and_records_why() {
        let ctx = ctx();
        let (mut control, _) = started(&ctx, None);
        let before = control.predicted().clone();
        control.hold(42.0, "down-hold");
        assert_eq!(
            (control.reason(), control.est_rps(), control.changed()),
            ("down-hold", 42.0, false)
        );
        assert_eq!(control.predicted(), &before);
    }

    #[test]
    fn only_sound_intervals_feed_the_model() {
        let ctx = ctx();
        let (mut control, _) = started(&ctx, None);
        let obs = |completed: usize| IntervalObs {
            duration_ms: 10_000.0,
            arrived: completed,
            completed,
            p99_ms: 150.0,
            queued: 0,
        };
        assert_eq!(control.observe(obs(29)), None, "too few completions");
        let err = control.observe(obs(30)).expect("sound interval feeds back");
        assert!((0.0..=1.0).contains(&err), "{err}");
        assert!(control.load_estimate_rps() > 0.0, "the monitor saw both");
    }
}
