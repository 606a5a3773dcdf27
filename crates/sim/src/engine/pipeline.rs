//! Cross-kernel pipelined streaming (MKPipe-style) of one launch: the
//! consumer floor, the producer stall of a bounded channel, and the
//! early dispatch of DAG successors on the first tile.

use super::Simulator;
use crate::device::WorkItem;
use crate::KernelImpl;
use poly_ir::KernelId;

/// Cross-kernel pipelined streaming (MKPipe-style): a producer kernel's
/// output is split into `tiles` chunks flowing to each DAG successor
/// through a bounded channel of `depth` credits, so the successor starts
/// on the first tile rather than the last. The producer stalls when the
/// consumer cannot drain credits fast enough; `depth == 0` disables the
/// whole mechanism and reproduces barrier semantics event-for-event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Channel depth in tile credits; `0` = barrier semantics (default).
    pub depth: u32,
    /// Tiles each inter-kernel payload is split into.
    pub tiles: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            depth: 0,
            tiles: poly_ir::DEFAULT_TILES,
        }
    }
}

impl PipelineConfig {
    /// Pipelined streaming with `depth` credits at the default tiling.
    #[must_use]
    pub fn with_depth(depth: u32) -> Self {
        Self {
            depth,
            ..Self::default()
        }
    }

    /// Whether streaming is active (a zero depth or a single tile is the
    /// barrier degenerate case).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.depth > 0 && self.tiles > 1
    }
}

/// The timing of one batch launch in ms, as batch start priced it:
/// execution start (after any reconfiguration) and time, and when the
/// requests complete and the device frees up — the two that streaming
/// adjusts in place.
#[derive(Debug, Clone, Copy)]
pub(super) struct Launch {
    pub start: f64,
    pub exec: f64,
    pub completion: f64,
    pub busy_until: f64,
}

impl Simulator {
    /// The streaming half of `try_start`, called once per launch of
    /// `batch` (kernel `kernel` under `imp`) when
    /// [`PipelineConfig::enabled`].
    /// Three effects, all on simulated time only:
    ///
    /// - **Consumer floor** — if any batched request is itself being
    ///   streamed into (a producer dispatched it on a first tile), this
    ///   launch cannot finish before that producer's last tile lands plus
    ///   one of its own tile times; completion and occupancy are floored
    ///   accordingly.
    /// - **Producer stall** — for every DAG successor this launch is the
    ///   last pending predecessor of, the bounded channel gives the
    ///   producer `min(depth, tiles)` credits; a consumer whose per-tile
    ///   time exceeds the producer's backs pressure up, extending the
    ///   producer by `(tiles - credits) * (tc - tp)` (the classic bounded
    ///   -buffer closed form; zero when the channel never fills).
    /// - **Early dispatch** — each such successor stage is dispatched
    ///   just in time to overlap with the remaining tiles (one chunk
    ///   transfer after the first tile, or later if the consumer is fast
    ///   enough to idle-wait otherwise). Its predecessor count is
    ///   consumed *now* and the stage marked streamed, so the producer's
    ///   eventual completion neither re-decrements nor re-dispatches it —
    ///   a killed or hedged producer replays against the same flag.
    pub(super) fn pipeline_stream(
        &mut self,
        batch: &[WorkItem],
        kernel: KernelId,
        imp: KernelImpl,
        launch: &mut Launch,
    ) {
        let cfg = self.config.pipeline;
        let tiles = f64::from(cfg.tiles);
        let (start, exec) = (launch.start, launch.exec);

        // Consumer side: wait for the slowest streaming producer's last
        // tile, then one more tile of our own work. `NEG_INFINITY` floors
        // (no streaming producer) never bind.
        let floor = batch
            .iter()
            .map(|it| self.requests.stream_floor(it.req(), kernel.0))
            .fold(f64::NEG_INFINITY, f64::max);
        if floor.is_finite() && floor + exec / tiles > launch.completion {
            let delta = floor + exec / tiles - launch.completion;
            launch.completion += delta;
            launch.busy_until += delta;
        }

        // Producer side: stream into successors we are the last pending
        // predecessor of.
        let mut succs = std::mem::take(&mut self.succ_scratch);
        succs.clear();
        succs.extend(self.graph.successors(kernel).map(|e| (e.to, e.bytes)));
        if !succs.is_empty() {
            let credits = f64::from(cfg.depth.min(cfg.tiles));
            let tp = (launch.completion - start) / tiles;
            let mut stall = 0.0f64;
            for &(succ, _) in &succs {
                let eligible = batch.iter().any(|it| {
                    self.requests.remaining_preds(it.req(), succ.0) == 1
                        && !self.requests.streamed(it.req(), succ.0)
                });
                if eligible {
                    let tc = self.policy.of(succ).latency_single_ms / tiles;
                    stall = stall.max((tiles - credits) * (tc - tp));
                }
            }
            if stall > 0.0 {
                launch.completion += stall;
                launch.busy_until += stall;
            }
            let completion = launch.completion;
            for &(succ, bytes) in &succs {
                let succ_imp = *self.policy.of(succ);
                // Per-tile chunk crossing the platform boundary pays PCIe
                // at chunk granularity; same-kind edges stream for free,
                // like the barrier path's transfer rule.
                let chunk_ms = if succ_imp.kind == imp.kind {
                    0.0
                } else {
                    let chunk =
                        poly_ir::ChannelSpec::new(bytes, cfg.tiles, cfg.depth).chunk_bytes();
                    self.config.pcie.transfer_ms(chunk)
                };
                // Just-in-time start: late enough that the consumer never
                // idles on an empty channel (its estimated run ends one of
                // its tiles after our last tile), but never before our
                // first tile can reach it.
                let jit = start
                    + tp.max(
                        (completion - start) - succ_imp.latency_single_ms * (1.0 - 1.0 / tiles),
                    )
                    + chunk_ms;
                for it in batch {
                    if self.requests.remaining_preds(it.req(), succ.0) == 1
                        && !self.requests.streamed(it.req(), succ.0)
                    {
                        self.requests.dec_remaining_preds(it.req(), succ.0);
                        self.requests.set_streamed(it.req(), succ.0);
                        self.requests
                            .set_stream_floor(it.req(), succ.0, completion + chunk_ms);
                        self.push_dispatch(jit, it.req(), succ);
                    }
                }
            }
        }
        succs.clear();
        self.succ_scratch = succs;
    }
}
