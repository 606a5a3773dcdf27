//! # poly-bench — the experiment harness
//!
//! Shared machinery for regenerating every table and figure of the paper
//! (see `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for
//! recorded results). The `experiments` binary exposes one subcommand per
//! figure/table plus `verify`, over the figure table of [`harness`];
//! Criterion micro-benchmarks live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csvout;
pub mod harness;
pub mod system;

pub use system::System;
