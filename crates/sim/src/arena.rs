//! Record-per-request state arena for the discrete-event engine.
//!
//! The engine first kept one `ReqState` per request, each owning four
//! heap `Vec`s — four allocations *per arrival* on the hot path, and
//! unbounded growth over a long replay because settled requests were
//! never reclaimed. [`ReqArena`] holds that state in two flat ring
//! buffers indexed by global request number:
//!
//! - `reqs`: one 24-byte [`Req`] record per request (arrival, size,
//!   kernels left, outcome);
//! - `stages`: one 8-byte [`Stage`] per `(request, kernel)` (attempt,
//!   remaining predecessors, done/hedged/streamed flags), a request's
//!   stages contiguous at `(req - base) * k`.
//!
//! Handling one event touches one request, so keeping that request's
//! fields side by side means one or two cache lines per event. The
//! earlier structure-of-arrays layout (eleven parallel deques) spread the
//! same fields over up to eight lines, and under deep queues the request
//! at a lane's front was admitted long ago, so each of those lines was a
//! miss (DESIGN.md §25).
//!
//! Admitting a request is one record push and one copy of a precomputed
//! stage template — no per-request allocation in steady state — and a
//! prefix of *settled* requests can be compacted away at measurement
//! boundaries without renumbering: request indices are global and
//! monotone (a `base` offset maps them into the live window), which
//! matters because the backoff-jitter key and the audit trail are derived
//! from those indices. The buffers are `VecDeque`s, so dropping a settled
//! prefix costs what it drops: an overloaded node keeps tens of thousands
//! of requests in flight, and shifting that live suffix down at every
//! boundary would copy the whole window each time.
//!
//! A request's deadline is not stored: every request of one simulator
//! gets the same slack (`deadline_factor × latency_bound_ms`, or none),
//! so the arena keeps that slack once and a deadline reads
//! `arrival_ms + slack`, the very expression admission used to store.
//! An overloaded node holds its whole backlog here, so each byte of the
//! record is paid once per queued request.
//!
//! Stream floors (pipelined streaming only) live in a third buffer that
//! exists only when the arena is built with streaming on; without it
//! every floor reads `NEG_INFINITY` and nothing is stored.
//!
//! Compaction safety rests on one invariant, checked by every engine
//! access path: a compacted request is **settled** (its `outcome` left
//! `InFlight`), and every event handler consults
//! [`is_settled`](ReqArena::is_settled) — which answers `true` for the
//! compacted range without touching storage — before reading any
//! per-kernel state. Settled requests hold no queued or future-completion
//! work, so no live path ever indexes below `base`.

use std::collections::VecDeque;

/// The largest request index one simulator admits: indices fit `u32`, the
/// width the device queues and events key requests by, so a simulator
/// admits at most 2^32 requests over its life (compacted ones included).
pub(crate) const MAX_REQ_INDEX: usize = u32::MAX as usize;

/// Where a request ended up. `InFlight` until exactly one terminal
/// transition; the audit counters assert that exactly-once property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    InFlight,
    Completed,
    TimedOut,
    Failed,
    Cancelled,
}

/// Per-request scalars.
#[derive(Debug, Clone, Copy)]
struct Req {
    arrival_ms: f64,
    /// Relative input size (1.0 = the nominal profile the models were
    /// evaluated against).
    size: f64,
    kernels_left: u32,
    outcome: Outcome,
}

/// Per-`(request, kernel)` state.
#[derive(Debug, Clone, Copy)]
struct Stage {
    attempt: u32,
    remaining_preds: u16,
    /// [`DONE`] | [`HEDGED`] | [`STREAMED`].
    flags: u8,
}

/// The stage completed (first completion wins; later copies are stale).
const DONE: u8 = 1;
/// A hedge copy was fired for the stage (one hedge per stage).
const HEDGED: u8 = 1 << 1;
/// Pipelined streaming: the stage was dispatched early on its producer's
/// first tile (its final predecessor count was consumed at stream time,
/// so the producer's completion must not decrement it again). Never set
/// under barrier semantics.
const STREAMED: u8 = 1 << 2;

const _: () = assert!(std::mem::size_of::<Req>() == 24);
const _: () = assert!(std::mem::size_of::<Stage>() == 8);

/// Request state with global (never reused) indices: one [`Req`] per
/// request and its stages contiguous in one [`Stage`] buffer.
#[derive(Debug, Clone)]
pub(crate) struct ReqArena {
    /// Kernels per request (the DAG size).
    k: usize,
    /// Global index of the first request still held; everything below is
    /// compacted (and was settled).
    base: usize,
    /// Deadline of every request relative to its arrival, ms
    /// (`INFINITY`: no deadlines).
    slack_ms: f64,
    /// Fresh stages of one request: attempt 0, no flags, and the DAG's
    /// per-kernel predecessor counts.
    stage_template: Vec<Stage>,
    /// Index: `req - base`.
    reqs: VecDeque<Req>,
    /// Index: `(req - base) * k + kernel`.
    stages: VecDeque<Stage>,
    /// Earliest time a streamed stage can see its producer's **last**
    /// tile; the consumer's completion is floored at this plus one of its
    /// own tile times. `NEG_INFINITY` = no streaming producer. Indexed as
    /// `stages`; `None` when streaming is off.
    stream_floor: Option<VecDeque<f64>>,
}

impl ReqArena {
    /// Arena for requests walking a `k`-kernel DAG whose per-kernel
    /// predecessor counts are `pred_template`, each due `slack_ms` after
    /// its arrival (`INFINITY` for no deadline); stream floors are stored
    /// only when `streaming` (pipelined streaming is enabled).
    pub(crate) fn new(pred_template: Vec<u16>, slack_ms: f64, streaming: bool) -> Self {
        Self {
            k: pred_template.len(),
            base: 0,
            slack_ms,
            stage_template: pred_template
                .into_iter()
                .map(|remaining_preds| Stage {
                    attempt: 0,
                    remaining_preds,
                    flags: 0,
                })
                .collect(),
            reqs: VecDeque::new(),
            stages: VecDeque::new(),
            stream_floor: streaming.then(VecDeque::new),
        }
    }

    /// Total requests ever admitted (compacted ones included): the next
    /// request's global index.
    pub(crate) fn len(&self) -> usize {
        self.base + self.reqs.len()
    }

    /// Global indices of the retained (non-compacted) window.
    pub(crate) fn live_range(&self) -> std::ops::Range<usize> {
        self.base..self.len()
    }

    /// Admit a request with relative input size `size`; returns its
    /// global index.
    ///
    /// # Panics
    /// Panics if the index would pass [`MAX_REQ_INDEX`]: the one place
    /// the request-index width is enforced.
    pub(crate) fn push_sized(&mut self, arrival_ms: f64, size: f64) -> usize {
        let req = self.len();
        assert!(
            req <= MAX_REQ_INDEX,
            "a simulator admits at most 2^32 requests (request indices are u32)"
        );
        self.reqs.push_back(Req {
            arrival_ms,
            size,
            kernels_left: u32::try_from(self.k).expect("kernel count fits u32"),
            outcome: Outcome::InFlight,
        });
        self.stages.extend(&self.stage_template);
        if let Some(floors) = &mut self.stream_floor {
            floors.extend(std::iter::repeat_n(f64::NEG_INFINITY, self.k));
        }
        req
    }

    /// Local window offset of global request `req`.
    ///
    /// # Panics
    /// Panics (in debug and release) if `req` was compacted — callers
    /// must consult [`is_settled`](Self::is_settled) first on any path a
    /// stale event can reach.
    fn at(&self, req: usize) -> usize {
        assert!(
            req >= self.base,
            "request {req} was compacted (base {})",
            self.base
        );
        req - self.base
    }

    fn kat(&self, req: usize, kernel: usize) -> usize {
        debug_assert!(kernel < self.k);
        self.at(req) * self.k + kernel
    }

    fn req(&self, req: usize) -> &Req {
        &self.reqs[self.at(req)]
    }

    fn req_mut(&mut self, req: usize) -> &mut Req {
        let i = self.at(req);
        &mut self.reqs[i]
    }

    fn stage(&self, req: usize, kernel: usize) -> &Stage {
        &self.stages[self.kat(req, kernel)]
    }

    fn stage_mut(&mut self, req: usize, kernel: usize) -> &mut Stage {
        let i = self.kat(req, kernel);
        &mut self.stages[i]
    }

    /// Whether `req` reached a terminal outcome (compacted requests are
    /// settled by construction).
    pub(crate) fn is_settled(&self, req: usize) -> bool {
        req < self.base || self.reqs[req - self.base].outcome != Outcome::InFlight
    }

    pub(crate) fn set_outcome(&mut self, req: usize, outcome: Outcome) {
        self.req_mut(req).outcome = outcome;
    }

    pub(crate) fn arrival_ms(&self, req: usize) -> f64 {
        self.req(req).arrival_ms
    }

    /// Absolute deadline of a retained request (`INFINITY` without
    /// deadlines).
    pub(crate) fn deadline_ms(&self, req: usize) -> f64 {
        self.req(req).arrival_ms + self.slack_ms
    }

    /// Relative input size of a retained request (1.0 = nominal).
    pub(crate) fn size(&self, req: usize) -> f64 {
        self.req(req).size
    }

    /// Decrement `kernels_left`, returning the new value.
    pub(crate) fn dec_kernels_left(&mut self, req: usize) -> u32 {
        let r = self.req_mut(req);
        r.kernels_left -= 1;
        r.kernels_left
    }

    pub(crate) fn done(&self, req: usize, kernel: usize) -> bool {
        self.stage(req, kernel).flags & DONE != 0
    }

    pub(crate) fn set_done(&mut self, req: usize, kernel: usize) {
        self.stage_mut(req, kernel).flags |= DONE;
    }

    pub(crate) fn attempt(&self, req: usize, kernel: usize) -> u32 {
        self.stage(req, kernel).attempt
    }

    pub(crate) fn bump_attempt(&mut self, req: usize, kernel: usize) {
        self.stage_mut(req, kernel).attempt += 1;
    }

    /// Bump every stage's attempt (stale-ifies all scheduled completions
    /// of the request).
    pub(crate) fn bump_all_attempts(&mut self, req: usize) {
        let i = self.at(req) * self.k;
        for s in self.stages.range_mut(i..i + self.k) {
            s.attempt += 1;
        }
    }

    pub(crate) fn hedged(&self, req: usize, kernel: usize) -> bool {
        self.stage(req, kernel).flags & HEDGED != 0
    }

    pub(crate) fn set_hedged(&mut self, req: usize, kernel: usize) {
        self.stage_mut(req, kernel).flags |= HEDGED;
    }

    /// Decrement a successor's remaining-predecessor count, returning the
    /// new value.
    pub(crate) fn dec_remaining_preds(&mut self, req: usize, kernel: usize) -> u16 {
        let s = self.stage_mut(req, kernel);
        s.remaining_preds -= 1;
        s.remaining_preds
    }

    /// Remaining undone predecessors of a stage (read-only — the streaming
    /// producer checks it is the *last* one before dispatching early).
    pub(crate) fn remaining_preds(&self, req: usize, kernel: usize) -> u16 {
        self.stage(req, kernel).remaining_preds
    }

    /// Whether the stage was already dispatched early by a streaming
    /// producer (its predecessor count was consumed at stream time).
    pub(crate) fn streamed(&self, req: usize, kernel: usize) -> bool {
        self.stage(req, kernel).flags & STREAMED != 0
    }

    /// Mark the stage as stream-dispatched. Never cleared: a killed or
    /// hedged producer must not re-dispatch (or re-decrement) the stage.
    pub(crate) fn set_streamed(&mut self, req: usize, kernel: usize) {
        self.stage_mut(req, kernel).flags |= STREAMED;
    }

    /// Last-tile availability floor of a streamed stage (`NEG_INFINITY`
    /// when nothing streams into it, and always without streaming).
    pub(crate) fn stream_floor(&self, req: usize, kernel: usize) -> f64 {
        match &self.stream_floor {
            Some(floors) => floors[self.kat(req, kernel)],
            None => f64::NEG_INFINITY,
        }
    }

    /// Record when the streaming producer's last tile reaches the stage.
    ///
    /// # Panics
    /// Panics if the arena was built without streaming.
    pub(crate) fn set_stream_floor(&mut self, req: usize, kernel: usize, floor_ms: f64) {
        let i = self.kat(req, kernel);
        let floors = self
            .stream_floor
            .as_mut()
            .expect("stream floors are stored only with streaming on");
        floors[i] = floor_ms;
    }

    /// Retained requests still in flight (the audit's `pending` count;
    /// compacted requests are settled and contribute zero).
    pub(crate) fn pending(&self) -> usize {
        self.reqs
            .iter()
            .filter(|r| r.outcome == Outcome::InFlight)
            .count()
    }

    /// Drop the settled prefix of the window, keeping global indices
    /// stable via `base`. Called at measurement boundaries; it costs the
    /// prefix it drops (the live suffix stays where it is), and memory
    /// stays bounded by the in-flight population, not the trace length.
    pub(crate) fn compact(&mut self) {
        let settled = self
            .reqs
            .iter()
            .take_while(|r| r.outcome != Outcome::InFlight)
            .count();
        if settled == 0 {
            return;
        }
        self.base += settled;
        self.reqs.drain(..settled);
        self.stages.drain(..settled * self.k);
        if let Some(floors) = &mut self.stream_floor {
            floors.drain(..settled * self.k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena2() -> ReqArena {
        // Two-kernel chain: kernel 0 has no predecessors, kernel 1 has 1.
        ReqArena::new(vec![0, 1], f64::INFINITY, true)
    }

    #[test]
    fn push_initializes_from_template() {
        let mut a = ReqArena::new(vec![0, 1], 95.0, true);
        let r = a.push_sized(5.0, 1.0);
        assert_eq!(r, 0);
        assert_eq!(a.arrival_ms(r), 5.0);
        assert_eq!(a.deadline_ms(r), 100.0);
        assert_eq!(a.size(r).to_bits(), 1.0f64.to_bits());
        let r2 = a.push_sized(6.0, 2.5);
        assert_eq!(a.deadline_ms(r2), 101.0);
        let mut open = arena2();
        let r3 = open.push_sized(5.0, 1.0);
        assert_eq!(open.deadline_ms(r3), f64::INFINITY, "no deadlines");
        assert_eq!(a.size(r2), 2.5);
        assert_eq!(a.req(r).kernels_left, 2);
        assert_eq!(a.req(r).outcome, Outcome::InFlight);
        assert!(!a.done(r, 0) && !a.done(r, 1));
        assert_eq!(a.attempt(r, 0), 0);
        assert!(!a.hedged(r, 1));
        assert_eq!(a.dec_remaining_preds(r, 1), 0);
    }

    #[test]
    #[should_panic(expected = "a simulator admits at most 2^32 requests")]
    fn admission_stops_at_the_u32_index_bound() {
        let mut a = arena2();
        // Stand in for 2^32 - 1 compacted requests without holding them.
        a.base = MAX_REQ_INDEX;
        assert_eq!(a.push_sized(0.0, 1.0), MAX_REQ_INDEX, "last index admitted");
        a.push_sized(0.0, 1.0);
    }

    #[test]
    fn compaction_keeps_global_indices() {
        let mut a = arena2();
        for i in 0..10 {
            let r = a.push_sized(i as f64, 1.0);
            assert_eq!(r, i);
        }
        // Settle the first seven, leave 7..10 in flight.
        for r in 0..7 {
            a.set_outcome(r, Outcome::Completed);
        }
        a.compact();
        assert_eq!(a.len(), 10, "global count unchanged");
        assert_eq!(a.live_range(), 7..10);
        assert_eq!(a.pending(), 3);
        for r in 0..7 {
            assert!(a.is_settled(r), "compacted request {r} reads settled");
        }
        assert!(!a.is_settled(7));
        assert_eq!(a.arrival_ms(8), 8.0, "retained state intact");
        // New admissions continue the global numbering.
        assert_eq!(a.push_sized(99.0, 1.0), 10);
        // A settled-but-unsorted suffix does not compact past the first
        // in-flight request.
        a.set_outcome(9, Outcome::Cancelled);
        a.compact();
        assert_eq!(a.live_range(), 7..11, "request 7 still pins the window");
    }

    #[test]
    #[should_panic(expected = "compacted")]
    fn direct_access_to_compacted_request_panics() {
        let mut a = arena2();
        a.push_sized(0.0, 1.0);
        a.set_outcome(0, Outcome::Completed);
        a.compact();
        let _ = a.arrival_ms(0);
    }

    #[test]
    fn streaming_state_defaults_and_survives_compaction() {
        let mut a = arena2();
        let r0 = a.push_sized(0.0, 1.0);
        let r1 = a.push_sized(1.0, 1.0);
        assert!(!a.streamed(r0, 1));
        assert_eq!(a.stream_floor(r0, 1), f64::NEG_INFINITY);
        assert_eq!(a.remaining_preds(r1, 1), 1);
        a.set_streamed(r1, 1);
        a.set_stream_floor(r1, 1, 42.5);
        a.set_outcome(r0, Outcome::Completed);
        a.compact();
        assert!(a.streamed(r1, 1), "stream flag intact across compaction");
        assert_eq!(a.stream_floor(r1, 1), 42.5);
        assert!(!a.streamed(r1, 0));
    }

    #[test]
    fn per_kernel_state_is_independent_across_requests() {
        let mut a = arena2();
        let r0 = a.push_sized(0.0, 1.0);
        let r1 = a.push_sized(1.0, 1.0);
        a.set_done(r0, 1);
        a.bump_attempt(r1, 0);
        a.set_hedged(r1, 1);
        assert!(a.done(r0, 1) && !a.done(r1, 1));
        assert_eq!(a.attempt(r0, 0), 0);
        assert_eq!(a.attempt(r1, 0), 1);
        assert!(a.hedged(r1, 1) && !a.hedged(r0, 1));
        a.bump_all_attempts(r0);
        assert_eq!((a.attempt(r0, 0), a.attempt(r0, 1)), (1, 1));
        assert_eq!((a.attempt(r1, 0), a.attempt(r1, 1)), (1, 0));
    }

    #[test]
    fn without_streaming_no_floors_are_stored_and_all_read_neg_infinity() {
        let mut a = ReqArena::new(vec![0, 1], f64::INFINITY, false);
        let r0 = a.push_sized(0.0, 1.0);
        let r1 = a.push_sized(1.0, 1.0);
        assert!(
            a.stream_floor.is_none(),
            "no floor buffer without streaming"
        );
        for r in [r0, r1] {
            for k in 0..2 {
                assert_eq!(a.stream_floor(r, k), f64::NEG_INFINITY);
            }
        }
        a.set_outcome(r0, Outcome::Completed);
        a.compact();
        assert!(a.stream_floor.is_none());
        assert_eq!(a.stream_floor(r1, 1), f64::NEG_INFINITY);
    }

    #[test]
    fn compaction_drops_whole_records_and_keeps_stages_aligned() {
        // Three-kernel fan-in: kernel 2 waits on kernels 0 and 1.
        let mut a = ReqArena::new(vec![0, 0, 2], 100.0, true);
        for i in 0..6 {
            a.push_sized(i as f64, 1.0 + i as f64);
        }
        // Give every retained stage a distinct signature: request r's
        // kernel k carries attempt r * 3 + k.
        for r in 0..6 {
            for k in 0..3 {
                for _ in 0..r * 3 + k {
                    a.bump_attempt(r, k);
                }
            }
            if r % 2 == 1 {
                a.set_done(r, 1);
            }
            a.set_stream_floor(r, 2, 10.0 * r as f64);
        }
        for r in 0..4 {
            a.set_outcome(r, Outcome::Completed);
        }
        a.compact();
        assert_eq!(a.live_range(), 4..6);
        assert_eq!(
            (a.reqs.len(), a.stages.len()),
            (2, 6),
            "whole records dropped"
        );
        assert_eq!(a.stream_floor.as_ref().map(VecDeque::len), Some(6));
        for r in 4..6 {
            assert_eq!(a.arrival_ms(r), r as f64);
            assert_eq!(a.deadline_ms(r), r as f64 + 100.0);
            assert_eq!(a.size(r), 1.0 + r as f64);
            assert_eq!(a.req(r).kernels_left, 3);
            for k in 0..3 {
                assert_eq!(a.attempt(r, k), (r * 3 + k) as u32, "stage ({r}, {k})");
            }
            assert_eq!(a.done(r, 1), r % 2 == 1);
            assert!(!a.done(r, 0) && !a.done(r, 2));
            assert_eq!(a.remaining_preds(r, 2), 2);
            assert_eq!(a.stream_floor(r, 2), 10.0 * r as f64);
        }
        // A request admitted after compaction starts from the template.
        let r6 = a.push_sized(6.0, 1.0);
        assert_eq!((a.attempt(r6, 0), a.remaining_preds(r6, 2)), (0, 2));
        assert!(!a.done(r6, 1) && !a.hedged(r6, 1) && !a.streamed(r6, 2));
        assert_eq!(a.stream_floor(r6, 2), f64::NEG_INFINITY);
    }
}
