//! # poly-cluster — the multi-node layer above single Poly leaf nodes
//!
//! The paper evaluates Poly on one provisioned node; a datacenter runs
//! fleets of them behind a front-end. This crate scales the runtime up
//! one level: N leaf nodes — each a full per-node stack (device pool,
//! design-space tables, monitor → model → optimizer loop) — behind a
//! front-end [`Router`] with pluggable admission/routing policies, a
//! cluster-wide [`PowerGovernor`] that re-splits the fleet power budget
//! across nodes every interval, and node-level fault domains built on
//! the device-level `FaultPlan` machinery.
//!
//! Everything runs on the existing discrete-event clock and is
//! deterministic: the same trace, seed, and configuration replay to
//! bit-identical [`ClusterReport`]s, so policy comparisons can be fanned
//! out across worker threads (`poly-par`) without affecting results.
//!
//! - [`ClusterNode`] — one leaf node stepped interval-by-interval
//! - [`Router`] / [`RoutingPolicy`] — round-robin, join-shortest-queue,
//!   power-headroom-weighted, and QoS-aware admission control that
//!   defers/sheds traffic when projected p99 would exceed the bound
//! - [`CircuitBreaker`] — per-node closed → open → half-open breaker
//!   that cuts traffic to nodes whose violation rate trips a threshold
//! - [`PowerGovernor`] — load-proportional re-split of the fleet power
//!   budget, feeding per-node caps into each node's optimizer
//! - [`Cluster`] — the trace driver tying it together

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoscale;
mod breaker;
mod cluster;
mod governor;
mod node;
mod router;

pub use autoscale::{AutoscaleConfig, Autoscaler, ScaleAction};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cluster::{
    node_fault_plan, Cluster, ClusterConfig, ClusterError, ClusterIntervalRecord, ClusterReport,
    ClusterRunSpec,
};
pub use governor::{weighted_water_fill, NodeShare, PowerGovernor};
pub use node::{ClusterNode, NodeIntervalStats, NodeTransition};
pub use router::{ClassNodeView, ClassRouteOutcome, NodeView, Router, RoutingPolicy};
