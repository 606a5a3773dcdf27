//! # Poly — heterogeneous system and application management for interactive applications
//!
//! A from-scratch Rust reproduction of *"Poly: Efficient Heterogeneous
//! System and Application Management for Interactive Applications"*
//! (Wang, Liang, Zhang — HPCA 2019).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`ir`] — parallel-pattern IR (patterns, CDFG, PPG, kernel DAGs, DSL)
//! - [`device`] — analytical GPU/FPGA models and the accelerator catalog
//! - [`backend`] — the per-node execution backend: analytical device
//!   models by default, or a CPU backend that really executes
//!   representative micro-kernels and reports measured wall-clock
//! - [`dse`] — offline kernel analysis and design-space exploration
//! - [`sched`] — the two-step runtime kernel scheduler
//! - [`sim`] — discrete-event datacenter simulator and metrics
//! - [`apps`] — the six QoS-sensitive benchmark applications
//! - [`core`] — the Poly framework (monitor / model / optimizer loop,
//!   provisioning, TCO)
//! - [`cluster`] — the multi-node layer above single leaf nodes: front-end
//!   routing with QoS-aware admission, cluster-wide power budgeting, and
//!   node-level fault domains
//! - [`obs`] — structured telemetry: per-request spans, per-interval
//!   runtime events, and cluster events, with Chrome trace / CSV /
//!   histogram exporters (zero-cost when no recorder is attached)
//!
//! Layer-specific errors ([`ir::IrError`], [`sched::ScheduleError`],
//! [`sim::SimError`], [`sim::AuditError`], [`sim::FaultPlanError`])
//! unify into the top-level [`enum@Error`] via `From`, so multi-layer
//! callers can `?` throughout.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory; `EXPERIMENTS.md` records paper-vs-measured results for every
//! table and figure.

#![forbid(unsafe_code)]

pub use poly_apps as apps;
pub use poly_backend as backend;
pub use poly_cluster as cluster;
pub use poly_core as core;
pub use poly_device as device;
pub use poly_dse as dse;
pub use poly_ir as ir;
pub use poly_obs as obs;
pub use poly_sched as sched;
pub use poly_sim as sim;

mod error;
pub use error::{Error, Result};
