//! Calendar-queue / timer-wheel event queue for the discrete-event engine.
//!
//! The engine's original `BinaryHeap` pays `O(log n)` compares per push
//! and pop, with poor locality once the pending set grows past the cache
//! (every sift touches a scattered path through the heap array). A DES
//! event population is far more structured than an arbitrary priority
//! queue workload: almost every event is scheduled within a few service
//! times of "now", and the clock only moves forward. [`EventQueue`]
//! exploits that shape:
//!
//! - a **ring of time buckets** of fixed width holds everything within
//!   the wheel horizon; insertion is an append to the target bucket —
//!   `O(1)`, no compares;
//! - the **current bucket** is sorted once when the cursor reaches it and
//!   then consumed from the back, so pops are `O(1)` amortized;
//! - far-future events (an interval's pre-enqueued arrivals, request
//!   deadlines, scripted faults) go to the **overflow** and migrate onto
//!   the wheel as the cursor approaches them. The overflow is two
//!   structures: an **in-order run** (a FIFO) takes every far push whose
//!   `(time, seq)` is at or after the run's back — arrival streams come
//!   pre-sorted, so they append and migrate in `O(1)` with no compares
//!   beyond one — and a **heap** takes the out-of-order rest.
//!
//! ## Exact heap-order equivalence
//!
//! Every event carries an internally assigned monotone sequence number,
//! and pops are globally ordered by `(TotalF64(time), seq)` — the exact
//! tie-break the `BinaryHeap<Reverse<(TotalF64, u64, _)>>` it replaces
//! used (the payload never participates: `seq` is unique, so comparison
//! ends there). Same-timestamp events therefore pop in insertion order,
//! which the simulator's determinism contract (byte-identical reference
//! CSVs) depends on. The property test in `tests/equeue_order.rs` checks
//! pop-for-pop equality against the heap over randomized event streams,
//! including dense same-timestamp ties and pushes interleaved with pops.
//!
//! Events may be pushed at or before the current cursor time (the engine
//! schedules same-instant dispatches while draining); such entries are
//! merged into the sorted current bucket by binary insertion, preserving
//! global order.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Number of buckets on the wheel. Power of two so the slot index is a
/// mask, not a division. Kept small so the ring stays cache-resident:
/// every bucket is written once per revolution, and with thousands of
/// buckets a node's ring outgrows the core's cache, so nearly every push
/// missed (on an overloaded 4-node fleet a 2048-bucket ring cost about a
/// sixth of the replay's host time in that one store).
const BUCKETS: usize = 256;
/// Bucket width in simulated milliseconds. With [`BUCKETS`] this gives a
/// ~0.5 s horizon: device completions, batch wakes and PCIe transfers
/// land on the wheel; an interval's pre-enqueued arrivals, deadlines and
/// scripted faults go to the overflow (in-order run or heap) and migrate
/// as the cursor reaches them. Narrow buckets keep per-bucket population small, so the
/// lazy sort stays in the cheap small-slice regime. Must stay a power of
/// two so multiplying by [`INV_WIDTH_MS`] is exact (bit-identical to
/// dividing).
const WIDTH_MS: f64 = 2.0;
const INV_WIDTH_MS: f64 = 1.0 / WIDTH_MS;

/// Monotone `u64` image of `f64::total_cmp` order (the transform
/// `total_cmp` applies per comparison, done once per event instead):
/// `order_bits(a) <= order_bits(b)` iff `a.total_cmp(&b) != Greater`,
/// i.e. exactly [`crate::TotalF64`]'s order. Bijective; inverted by
/// [`time_of_bits`].
fn order_bits(t: f64) -> u64 {
    let mut bits = t.to_bits() as i64;
    bits ^= (((bits >> 63) as u64) >> 1) as i64;
    (bits as u64) ^ (1 << 63)
}

/// Inverse of [`order_bits`]: recovers the exact `f64` bit pattern.
fn time_of_bits(k: u64) -> f64 {
    f64::from_bits(if k & (1 << 63) != 0 {
        k ^ (1 << 63)
    } else {
        !k
    })
}

/// Event record: 24 bytes for a `u32` payload. The timestamp is stored
/// only as its [`order_bits`] image, so the bucket sort and the
/// binary-insertion path compare two plain `u64`s per element and the
/// exact `f64` is reconstructed on pop.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    kt: u64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.kt, self.seq)
    }

    fn t(&self) -> f64 {
        time_of_bits(self.kt)
    }
}

/// Overflow wrapper ordered by `(time, seq)` only — the payload does not
/// need to be `Ord` (the unique `seq` makes the order total).
#[derive(Debug, Clone, Copy)]
struct Far<T>(Entry<T>);

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl<T> Eq for Far<T> {}
impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// Timer-wheel event queue with exact `(time, seq)` pop order.
///
/// Drop-in replacement for the engine's binary heap: `push` stamps each
/// event with a monotone sequence number and `pop` returns events in
/// globally sorted `(time, seq)` order, so same-timestamp events come
/// back in insertion order.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Future buckets, indexed by absolute bucket number masked onto the
    /// ring. Unsorted; sorted lazily when the cursor reaches them.
    buckets: Vec<Vec<Entry<T>>>,
    /// The bucket the cursor currently drains, sorted *descending* by
    /// `(time, seq)` so the next event pops from the back in `O(1)`.
    current: Vec<Entry<T>>,
    /// Absolute bucket number `current` corresponds to.
    cursor: u64,
    /// Events beyond the wheel horizon pushed in `(time, seq)` order:
    /// ascending front to back, so the front is the run's earliest.
    run: VecDeque<Entry<T>>,
    /// Events beyond the wheel horizon that arrived out of order (before
    /// the run's back), ordered min-first.
    overflow: BinaryHeap<Reverse<Far<T>>>,
    /// Events held in `buckets` (excludes `current`, `run` and
    /// `overflow`).
    ring_len: usize,
    /// Total events held.
    len: usize,
    /// Monotone stamp; pre-incremented so the first event gets seq 1
    /// (matching the engine's original counter).
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue with the cursor at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::iter::repeat_with(Vec::new).take(BUCKETS).collect(),
            current: Vec::new(),
            cursor: 0,
            run: VecDeque::new(),
            overflow: BinaryHeap::new(),
            ring_len: 0,
            len: 0,
            seq: 0,
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absolute bucket number of time `t`. Saturates for times past
    /// ~`u64::MAX` buckets, which the overflow handles by actual time
    /// anyway.
    fn bucket_of(&self, t: f64) -> u64 {
        // Negative times (never produced by the engine, but allowed by
        // the API) clamp onto the first bucket. Reciprocal multiply is
        // exact because WIDTH_MS is a power of two.
        (t.max(0.0) * INV_WIDTH_MS) as u64
    }

    /// Schedule `payload` at time `t`. Events may be scheduled at or
    /// before already-popped times; they simply become the next pops (in
    /// `(time, seq)` order), exactly as with a binary heap.
    pub fn push(&mut self, t: f64, payload: T) {
        self.seq += 1;
        let e = Entry {
            kt: order_bits(t),
            seq: self.seq,
            payload,
        };
        self.len += 1;
        let b = self.bucket_of(t);
        if b <= self.cursor {
            // Belongs to the bucket being drained (or earlier): binary
            // insertion into the descending-sorted current bucket keeps
            // global pop order exact.
            let key = e.key();
            let pos = self.current.partition_point(|x| x.key() > key);
            self.current.insert(pos, e);
        } else if b < self.cursor + BUCKETS as u64 {
            self.buckets[(b as usize) & (BUCKETS - 1)].push(e);
            self.ring_len += 1;
        } else if self.run.back().is_none_or(|back| back.key() <= e.key()) {
            self.run.push_back(e);
        } else {
            self.overflow.push(Reverse(Far(e)));
        }
    }

    /// Move the cursor to the next bucket holding events and load it into
    /// `current`. Caller guarantees `current` is empty and `len > 0`.
    fn advance_bucket(&mut self) {
        debug_assert!(self.current.is_empty() && self.len > 0);
        if self.ring_len == 0 {
            // Nothing on the wheel: jump straight to the earliest
            // overflow event's bucket instead of scanning empty slots.
            let run = self.run.front().map(|e| self.bucket_of(e.t()));
            let heap = self.overflow.peek().map(|far| self.bucket_of(far.0 .0.t()));
            let b = run
                .into_iter()
                .chain(heap)
                .min()
                .expect("len > 0 with empty ring");
            self.cursor = self.cursor.max(b);
        } else {
            self.cursor += 1;
        }
        // Pull every overflow event that now falls at or before the
        // cursor bucket, from the run and the heap alike. (Entries between
        // cursor and the horizon stay in the overflow; they migrate as the
        // cursor reaches them, which keeps this a cheap peek per bucket
        // step.) The bucket is sorted when loaded below, so the order in
        // which the two sources land in it cannot change the pop order.
        let slot = (self.cursor as usize) & (BUCKETS - 1);
        while let Some(e) = self.run.front() {
            if self.bucket_of(e.t()) > self.cursor {
                break;
            }
            let e = self.run.pop_front().expect("peeked");
            self.buckets[slot].push(e);
            self.ring_len += 1;
        }
        while let Some(Reverse(far)) = self.overflow.peek() {
            if self.bucket_of(far.0.t()) > self.cursor {
                break;
            }
            let Reverse(Far(e)) = self.overflow.pop().expect("peeked");
            self.buckets[slot].push(e);
            self.ring_len += 1;
        }
        if !self.buckets[slot].is_empty() {
            std::mem::swap(&mut self.current, &mut self.buckets[slot]);
            self.ring_len -= self.current.len();
            // Sort descending; pops come off the back in ascending order.
            self.current.sort_unstable_by_key(|e| Reverse(e.key()));
        }
    }

    /// Time of the next event without removing it. Advances the cursor
    /// over empty buckets (hence `&mut`), which is invisible to callers:
    /// no event is skipped or reordered.
    pub fn peek_time(&mut self) -> Option<f64> {
        loop {
            if let Some(e) = self.current.last() {
                return Some(e.t());
            }
            if self.len == 0 {
                return None;
            }
            self.advance_bucket();
        }
    }

    /// Remove and return the earliest event as `(time, seq, payload)`,
    /// ordered by `(time, seq)`.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        loop {
            if let Some(e) = self.current.pop() {
                self.len -= 1;
                return Some((e.t(), e.seq, e.payload));
            }
            if self.len == 0 {
                return None;
            }
            self.advance_bucket();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TotalF64;

    #[test]
    fn order_bits_is_exactly_total_cmp() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            1.0,
            4096.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &vals {
            assert_eq!(
                time_of_bits(order_bits(a)).to_bits(),
                a.to_bits(),
                "round trip of {a}"
            );
            for &b in &vals {
                assert_eq!(
                    order_bits(a).cmp(&order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.push(t, ());
        }
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _, _)| t)).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(7.5, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // Far beyond the wheel horizon (scripted fault at ~1 hour), plus
        // near events.
        q.push(3_600_000.0, "fault");
        q.push(1.0, "near");
        q.push(10_000.0, "mid");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("near"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("mid"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("fault"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sorted_far_pushes_take_the_run_and_the_rest_the_heap() {
        let mut q = EventQueue::new();
        // An interval's arrivals, pre-sorted and all past the horizon.
        for i in 0..100u32 {
            q.push(1_000.0 + f64::from(i) * 7.0, i);
        }
        assert_eq!((q.run.len(), q.overflow.len()), (100, 0));
        // A deadline before the run's back goes to the heap; one at the
        // back's exact time still appends (its seq is later).
        q.push(1_100.0, 100);
        q.push(1_693.0, 101);
        assert_eq!((q.run.len(), q.overflow.len()), (101, 1));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        let mut want: Vec<u32> = (0..15).collect();
        want.push(100);
        want.extend(15..100);
        want.push(101);
        assert_eq!(order, want);
    }

    #[test]
    fn push_at_or_before_cursor_pops_next() {
        let mut q = EventQueue::new();
        q.push(100.0, "a");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("a"));
        // The cursor sits at t = 100's bucket; schedule earlier and at
        // the same instant — both must come back before anything later,
        // in (time, seq) order.
        q.push(200.0, "later");
        q.push(100.0, "same");
        q.push(50.0, "earlier");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("earlier"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("same"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("later"));
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut q = EventQueue::new();
        q.push(9.0, 9);
        q.push(2.0, 2);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.peek_time(), Some(2.0), "peek is idempotent");
        assert_eq!(q.pop(), Some((2.0, 2, 2)));
        assert_eq!(q.peek_time(), Some(9.0));
        assert_eq!(q.pop(), Some((9.0, 1, 9)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn seq_stamps_are_monotone_from_one() {
        let mut q = EventQueue::new();
        q.push(1.0, ());
        q.push(0.5, ());
        let (_, s1, ()) = q.pop().unwrap();
        let (_, s2, ()) = q.pop().unwrap();
        assert_eq!((s1, s2), (2, 1), "first push stamped 1, second 2");
    }

    #[test]
    fn interleaved_push_pop_respects_global_order() {
        // Heap reference check on a structured interleaving: pop one,
        // push two (one near, one far), repeatedly.
        let mut q = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(TotalF64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue<u64>, heap: &mut BinaryHeap<_>, t: f64| {
            seq += 1;
            q.push(t, seq);
            heap.push(Reverse((TotalF64(t), seq)));
        };
        for i in 0..200 {
            let t = f64::from(i) * 3.7;
            push(&mut q, &mut heap, t);
            push(&mut q, &mut heap, t + 9000.0);
            let got = q.pop().unwrap();
            let Reverse((TotalF64(t), s)) = heap.pop().unwrap();
            assert_eq!((got.0.to_bits(), got.1), (t.to_bits(), s));
        }
        while let Some(got) = q.pop() {
            let Reverse((TotalF64(t), s)) = heap.pop().unwrap();
            assert_eq!((got.0.to_bits(), got.1), (t.to_bits(), s));
        }
        assert!(heap.is_empty());
    }
}
