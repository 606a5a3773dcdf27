//! poly-obs: structured telemetry for the Poly reproduction.
//!
//! The paper's runtime is a monitor→model→optimizer feedback loop (§6,
//! Fig. 9); this crate gives the reproduction the visibility an operator
//! of such a loop needs: *why* an interval re-planned, which device each
//! request's stages actually ran on, and where tail latency is spent.
//!
//! Three pieces:
//!
//! * an [`Event`] schema covering the request lifecycle inside the DES
//!   (enqueue → dispatch → execute → complete/cancel/hedge), per-interval
//!   runtime decisions (load estimate, re-plan reason, predicted vs.
//!   observed p99, power draw), and cluster control actions (routing,
//!   breaker transitions, governor budget re-splits);
//! * a [`Recorder`] trait with a zero-cost [`NullRecorder`] and an
//!   in-memory [`MemRecorder`] whose clones share one buffer, so a
//!   caller keeps a handle while the simulator records into it;
//! * exporters: [`chrome_trace_json`] renders the control/device view as
//!   Chrome `trace_event` JSON (loadable in `chrome://tracing` or
//!   Perfetto), and [`summarize`]/[`HistogramSummary`] answer latency
//!   breakdown queries over the raw samples.
//!
//! Determinism contract: recording never touches simulator state (the
//! recorder keeps its own sequence counter), each event carries its sim
//! time and a stable per-buffer sequence number, the buffer holds events
//! in emission (sequence) order — not sim-time order: a cluster run
//! records node j's whole interval before node j + 1's — and every
//! exporter iterates the buffer in that order with fixed-precision float
//! formatting. So exported artifacts are byte-identical across `--jobs`
//! counts and the committed reference CSVs are unchanged when recording
//! is off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod hist;
mod recorder;

pub use chrome::chrome_trace_json;
pub use event::{Event, Sample};
pub use hist::{latency_summary, queue_wait_summary, service_summary, summarize, HistogramSummary};
pub use recorder::{MemRecorder, NullRecorder, Recorder};
