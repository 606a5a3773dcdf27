//! # poly-sim — the discrete-event datacenter leaf-node simulator
//!
//! The paper evaluates on physical servers; this crate is the testbed
//! substitute (DESIGN.md §2). It simulates one accelerator-outfitted leaf
//! node at request granularity:
//!
//! - **Devices** execute kernel implementations with the latencies the
//!   analytical models predict: GPUs *batch* queued work (launch overhead
//!   amortizes, completion latency grows), FPGAs *stream* it (pipelined
//!   service below completion latency) and pay a reconfiguration penalty
//!   when a different bitstream is needed.
//! - **Requests** walk the application's kernel DAG; cross-platform edges
//!   pay PCIe transfer time.
//! - **Metrics** track per-request latency percentiles (p99 tail latency),
//!   per-device utilization, and power integrated over time, from which the
//!   energy-proportionality metric of Eq. 1 is computed.
//!
//! The engine is stepped ([`Simulator::advance_to`]) so the Poly runtime
//! (monitor → model → optimizer) can re-plan between intervals and the
//! effect shows up in the same simulation — the feedback loop of Fig. 2.
//!
//! Request generators (constant-interval, Poisson, trace replay) and the
//! 24-hour Google-cluster-style utilization trace synthesizer live in
//! [`workload`].
//!
//! The engine lives in `engine/`, one module per mechanism (DESIGN.md
//! §26): `mod.rs` (construction, validation, the event loop) and
//! `dispatch`, `batch`, `pipeline`, `cancel`, `hedge`, `faults`,
//! `accounting`, over the request arena, device queues and event queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod audit;
mod counters;
mod device;
mod dqueue;
mod engine;
mod ep;
mod equeue;
mod fault;
mod lifecycle;
mod load;
mod metrics;
mod policy;
mod time;
pub mod workload;

pub use audit::{AuditError, AuditReport};
pub use counters::{Counters, OpCount, WorkCounters};
pub use device::DeviceStats;
pub use engine::{
    DynamicDispatch, KernelStats, PipelineConfig, SimConfig, SimError, SimReport, Simulator,
    GPU_PARKED_FRACTION,
};
pub use ep::{ep_metric, EpCurve, EpPoint};
pub use equeue::EventQueue;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
pub use lifecycle::{hedge_delay_from, BackoffPolicy, HedgeConfig, LifecycleConfig, RetryPolicy};
pub use load::{max_rps_under_qos, max_rps_under_qos_par, steady_state, LoadPoint, LoadSweep};
pub use metrics::{quantile_of, BoundedQuantile, LatencyStats, RetryStats};
pub use policy::{KernelImpl, Policy};
pub use time::TotalF64;
