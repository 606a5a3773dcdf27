//! # poly-core — the Poly framework
//!
//! Ties the whole system together (Fig. 2 of the paper):
//!
//! - [`provision`] assembles the three leaf-node architectures of
//!   Table III (*Homo-GPU*, *Homo-FPGA*, *Heter-Poly*) under a power cap,
//!   for each hardware setting (I–III).
//! - [`SystemModel`] is the analytic model of the runtime: it predicts
//!   capacity, p99 latency, and node power for a candidate policy at a
//!   given load, and self-corrects from measurements (the feedback loop of
//!   Section VI-C).
//! - [`Optimizer`] generates candidate policies — the two-step scheduler
//!   plan plus capacity-balanced platform assignments — and picks the most
//!   efficient one predicted to meet QoS at the monitored load.
//! - [`SystemMonitor`] tracks arrivals, tail latency, and power per
//!   re-planning interval.
//! - [`ControlLoop`] is the per-interval monitor → model → optimizer
//!   loop (re-plan, hysteresis, model feedback); a [`Tenant`] owns one
//!   with its application and simulator and steps them through one
//!   interval body, which the runtime and every cluster node drive.
//! - [`PolyRuntime`] drives the discrete-event simulator interval by
//!   interval over a utilization trace, re-planning from monitor feedback —
//!   the engine behind the 24-hour trace evaluation (Figs. 11–12).
//! - [`tco`] implements the Google-style total-cost-of-ownership model
//!   behind the cost-efficiency analysis (Fig. 14).
//! - [`Poly`] is the one-type facade tying it all together: offline
//!   exploration at construction, plans / policies / simulators on demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod control;
mod framework;
mod model;
mod monitor;
mod optimizer;
pub mod provision;
mod runtime;
pub mod tco;
mod tenant;

pub use context::AppContext;
pub use control::ControlLoop;
pub use framework::Poly;
pub use model::{PolicyPrediction, SystemModel};
pub use monitor::{IntervalObs, SystemMonitor};
pub use optimizer::{policy_from_points, Candidates, Optimizer};
pub use provision::{Architecture, NodeSetup, Setting};
pub use runtime::{
    retime_policy, validate_load, IntervalRecord, PolyRuntime, RunSpec, RunSpecError, RuntimeMode,
    TraceReport,
};
pub use tenant::{IntervalOutcome, Tenant};
