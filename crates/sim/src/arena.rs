//! Struct-of-arrays request-state arena for the discrete-event engine.
//!
//! The engine previously kept one `ReqState` per request, each owning
//! four heap `Vec`s (`remaining_preds`, `done`, `attempt`, `hedged`) —
//! four allocations *per arrival* on the hot path, and unbounded growth
//! over a long replay because settled requests were never reclaimed.
//!
//! [`ReqArena`] flattens that state into parallel flat arrays indexed by
//! `request * n_kernels` (per-kernel state) or `request` (per-request
//! scalars). Admitting a request is a handful of slice extends from a
//! precomputed predecessor-count template — no per-request allocation in
//! steady state — and a prefix of *settled* requests can be compacted
//! away at measurement boundaries without renumbering: request indices
//! are global and monotone (a `base` offset maps them into the live
//! window), which matters because the backoff-jitter key and the audit
//! trail are derived from those indices.
//!
//! The arrays are ring buffers (`VecDeque`), so dropping a settled
//! prefix costs what it drops: an overloaded node keeps tens of
//! thousands of requests in flight, and shifting that live suffix down
//! at every boundary would cost a copy of the whole window each time.
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
/// width the device queues key requests by, so a simulator admits at
/// most 2^32 requests over its life (compacted ones included).
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

/// Struct-of-arrays request state with global (never reused) indices.
#[derive(Debug, Clone)]
pub(crate) struct ReqArena {
    /// Kernels per request (the DAG size).
    k: usize,
    /// Global index of the first request still held; everything below is
    /// compacted (and was settled).
    base: usize,
    /// Per-kernel predecessor counts of the DAG — the initial value of
    /// each new request's `remaining_preds` window.
    pred_template: Vec<u16>,
    // --- per-request scalars (index: req - base) --------------------------
    arrival_ms: VecDeque<f64>,
    deadline_ms: VecDeque<f64>,
    /// Relative input size (1.0 = the nominal profile the models were
    /// evaluated against).
    size: VecDeque<f64>,
    kernels_left: VecDeque<u32>,
    outcome: VecDeque<Outcome>,
    // --- per-kernel state (index: (req - base) * k + kernel) --------------
    remaining_preds: VecDeque<u16>,
    done: VecDeque<bool>,
    attempt: VecDeque<u32>,
    hedged: VecDeque<bool>,
    /// Pipelined streaming: the stage was dispatched early on its
    /// producer's first tile (its final predecessor count was consumed at
    /// stream time, so the producer's completion must not decrement it
    /// again). Never set under barrier semantics.
    streamed: VecDeque<bool>,
    /// Earliest time the streamed stage can see its producer's **last**
    /// tile; the consumer's completion is floored at this plus one of its
    /// own tile times. `NEG_INFINITY` = no streaming producer.
    stream_floor: VecDeque<f64>,
}

impl ReqArena {
    /// Arena for requests walking a `k`-kernel DAG whose per-kernel
    /// predecessor counts are `pred_template`.
    pub(crate) fn new(pred_template: Vec<u16>) -> Self {
        Self {
            k: pred_template.len(),
            base: 0,
            pred_template,
            arrival_ms: VecDeque::new(),
            deadline_ms: VecDeque::new(),
            size: VecDeque::new(),
            kernels_left: VecDeque::new(),
            outcome: VecDeque::new(),
            remaining_preds: VecDeque::new(),
            done: VecDeque::new(),
            attempt: VecDeque::new(),
            hedged: VecDeque::new(),
            streamed: VecDeque::new(),
            stream_floor: VecDeque::new(),
        }
    }

    /// Total requests ever admitted (compacted ones included): the next
    /// request's global index.
    pub(crate) fn len(&self) -> usize {
        self.base + self.arrival_ms.len()
    }

    /// Global indices of the retained (non-compacted) window.
    pub(crate) fn live_range(&self) -> std::ops::Range<usize> {
        self.base..self.len()
    }

    /// Admit a nominal-size request; returns its global index. (Test
    /// convenience — the engine always goes through
    /// [`push_sized`](Self::push_sized).)
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn push(&mut self, arrival_ms: f64, deadline_ms: f64) -> usize {
        self.push_sized(arrival_ms, deadline_ms, 1.0)
    }

    /// Admit a request with relative input size `size`; returns its
    /// global index.
    ///
    /// # Panics
    /// Panics if the index would pass [`MAX_REQ_INDEX`]: the one place
    /// the request-index width is enforced.
    pub(crate) fn push_sized(&mut self, arrival_ms: f64, deadline_ms: f64, size: f64) -> usize {
        let req = self.len();
        assert!(
            req <= MAX_REQ_INDEX,
            "a simulator admits at most 2^32 requests (request indices are u32)"
        );
        self.arrival_ms.push_back(arrival_ms);
        self.deadline_ms.push_back(deadline_ms);
        self.size.push_back(size);
        self.kernels_left
            .push_back(u32::try_from(self.k).expect("kernel count fits u32"));
        self.outcome.push_back(Outcome::InFlight);
        self.remaining_preds.extend(&self.pred_template);
        self.done.extend(std::iter::repeat_n(false, self.k));
        self.attempt.extend(std::iter::repeat_n(0u32, self.k));
        self.hedged.extend(std::iter::repeat_n(false, self.k));
        self.streamed.extend(std::iter::repeat_n(false, self.k));
        self.stream_floor
            .extend(std::iter::repeat_n(f64::NEG_INFINITY, self.k));
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

    /// Whether `req` reached a terminal outcome (compacted requests are
    /// settled by construction).
    pub(crate) fn is_settled(&self, req: usize) -> bool {
        req < self.base || self.outcome[req - self.base] != Outcome::InFlight
    }

    /// Terminal (or in-flight) outcome of a *retained* request. The
    /// engine itself only ever needs the settled/in-flight distinction
    /// ([`is_settled`](Self::is_settled)); tests assert exact outcomes.
    #[cfg(test)]
    pub(crate) fn outcome(&self, req: usize) -> Outcome {
        self.outcome[self.at(req)]
    }

    pub(crate) fn set_outcome(&mut self, req: usize, outcome: Outcome) {
        let i = self.at(req);
        self.outcome[i] = outcome;
    }

    pub(crate) fn arrival_ms(&self, req: usize) -> f64 {
        self.arrival_ms[self.at(req)]
    }

    pub(crate) fn deadline_ms(&self, req: usize) -> f64 {
        self.deadline_ms[self.at(req)]
    }

    /// Relative input size of a retained request (1.0 = nominal).
    pub(crate) fn size(&self, req: usize) -> f64 {
        self.size[self.at(req)]
    }

    #[cfg(test)]
    pub(crate) fn kernels_left(&self, req: usize) -> u32 {
        self.kernels_left[self.at(req)]
    }

    /// Decrement `kernels_left`, returning the new value.
    pub(crate) fn dec_kernels_left(&mut self, req: usize) -> u32 {
        let i = self.at(req);
        self.kernels_left[i] -= 1;
        self.kernels_left[i]
    }

    pub(crate) fn done(&self, req: usize, kernel: usize) -> bool {
        self.done[self.kat(req, kernel)]
    }

    pub(crate) fn set_done(&mut self, req: usize, kernel: usize) {
        let i = self.kat(req, kernel);
        self.done[i] = true;
    }

    pub(crate) fn attempt(&self, req: usize, kernel: usize) -> u32 {
        self.attempt[self.kat(req, kernel)]
    }

    pub(crate) fn bump_attempt(&mut self, req: usize, kernel: usize) {
        let i = self.kat(req, kernel);
        self.attempt[i] += 1;
    }

    /// Bump every stage's attempt (stale-ifies all scheduled completions
    /// of the request).
    pub(crate) fn bump_all_attempts(&mut self, req: usize) {
        let i = self.at(req) * self.k;
        for a in self.attempt.range_mut(i..i + self.k) {
            *a += 1;
        }
    }

    pub(crate) fn hedged(&self, req: usize, kernel: usize) -> bool {
        self.hedged[self.kat(req, kernel)]
    }

    pub(crate) fn set_hedged(&mut self, req: usize, kernel: usize) {
        let i = self.kat(req, kernel);
        self.hedged[i] = true;
    }

    /// Decrement a successor's remaining-predecessor count, returning the
    /// new value.
    pub(crate) fn dec_remaining_preds(&mut self, req: usize, kernel: usize) -> u16 {
        let i = self.kat(req, kernel);
        self.remaining_preds[i] -= 1;
        self.remaining_preds[i]
    }

    /// Remaining undone predecessors of a stage (read-only — the streaming
    /// producer checks it is the *last* one before dispatching early).
    pub(crate) fn remaining_preds(&self, req: usize, kernel: usize) -> u16 {
        self.remaining_preds[self.kat(req, kernel)]
    }

    /// Whether the stage was already dispatched early by a streaming
    /// producer (its predecessor count was consumed at stream time).
    pub(crate) fn streamed(&self, req: usize, kernel: usize) -> bool {
        self.streamed[self.kat(req, kernel)]
    }

    /// Mark the stage as stream-dispatched. Never cleared: a killed or
    /// hedged producer must not re-dispatch (or re-decrement) the stage.
    pub(crate) fn set_streamed(&mut self, req: usize, kernel: usize) {
        let i = self.kat(req, kernel);
        self.streamed[i] = true;
    }

    /// Last-tile availability floor of a streamed stage (`NEG_INFINITY`
    /// when nothing streams into it).
    pub(crate) fn stream_floor(&self, req: usize, kernel: usize) -> f64 {
        self.stream_floor[self.kat(req, kernel)]
    }

    /// Record when the streaming producer's last tile reaches the stage.
    pub(crate) fn set_stream_floor(&mut self, req: usize, kernel: usize, floor_ms: f64) {
        let i = self.kat(req, kernel);
        self.stream_floor[i] = floor_ms;
    }

    /// Retained requests still in flight (the audit's `pending` count;
    /// compacted requests are settled and contribute zero).
    pub(crate) fn pending(&self) -> usize {
        self.outcome
            .iter()
            .filter(|&&o| o == Outcome::InFlight)
            .count()
    }

    /// Drop the settled prefix of the window, keeping global indices
    /// stable via `base`. Called at measurement boundaries; it costs the
    /// prefix it drops (the live suffix stays where it is), and memory
    /// stays bounded by the in-flight population, not the trace length.
    pub(crate) fn compact(&mut self) {
        let settled = self
            .outcome
            .iter()
            .take_while(|&&o| o != Outcome::InFlight)
            .count();
        if settled == 0 {
            return;
        }
        self.base += settled;
        self.arrival_ms.drain(..settled);
        self.deadline_ms.drain(..settled);
        self.size.drain(..settled);
        self.kernels_left.drain(..settled);
        self.outcome.drain(..settled);
        self.remaining_preds.drain(..settled * self.k);
        self.done.drain(..settled * self.k);
        self.attempt.drain(..settled * self.k);
        self.hedged.drain(..settled * self.k);
        self.streamed.drain(..settled * self.k);
        self.stream_floor.drain(..settled * self.k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena2() -> ReqArena {
        // Two-kernel chain: kernel 0 has no predecessors, kernel 1 has 1.
        ReqArena::new(vec![0, 1])
    }

    #[test]
    fn push_initializes_from_template() {
        let mut a = arena2();
        let r = a.push(5.0, 100.0);
        assert_eq!(r, 0);
        assert_eq!(a.arrival_ms(r), 5.0);
        assert_eq!(a.deadline_ms(r), 100.0);
        assert_eq!(a.size(r).to_bits(), 1.0f64.to_bits());
        let r2 = a.push_sized(6.0, 100.0, 2.5);
        assert_eq!(a.size(r2), 2.5);
        assert_eq!(a.kernels_left(r), 2);
        assert_eq!(a.outcome(r), Outcome::InFlight);
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
        assert_eq!(
            a.push(0.0, f64::INFINITY),
            MAX_REQ_INDEX,
            "last index admitted"
        );
        a.push(0.0, f64::INFINITY);
    }

    #[test]
    fn compaction_keeps_global_indices() {
        let mut a = arena2();
        for i in 0..10 {
            let r = a.push(i as f64, f64::INFINITY);
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
        assert_eq!(a.push(99.0, f64::INFINITY), 10);
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
        a.push(0.0, f64::INFINITY);
        a.set_outcome(0, Outcome::Completed);
        a.compact();
        let _ = a.arrival_ms(0);
    }

    #[test]
    fn streaming_state_defaults_and_survives_compaction() {
        let mut a = arena2();
        let r0 = a.push(0.0, f64::INFINITY);
        let r1 = a.push(1.0, f64::INFINITY);
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
        let r0 = a.push(0.0, f64::INFINITY);
        let r1 = a.push(1.0, f64::INFINITY);
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
}
