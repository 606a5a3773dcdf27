//! Property test: the timer-wheel [`EventQueue`] pops in exactly the
//! order of the `BinaryHeap<Reverse<(TotalF64, seq, payload)>>` it
//! replaced — `(time, insertion seq)` lexicographic, ties broken by
//! arrival order — over random interleaved push/pop streams whose times
//! span ties, the wheel's in-ring horizon, and the far-future overflow
//! path — both its in-order run and its heap — plus sparse streams
//! that jump the cursor across empty buckets, bucket and horizon edges
//! and ring wrap-arounds. A count gate keeps the cursor from stepping
//! through empty buckets one at a time.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use poly_sim::{EventQueue, TotalF64};

/// The wheel's bucket width (ms) and bucket count: the horizon is
/// `BUCKETS * WIDTH_MS` = 512 ms past the cursor's bucket.
const WIDTH_MS: f64 = 2.0;
const BUCKETS: u32 = 256;

type RefHeap = BinaryHeap<Reverse<(TotalF64, u64, u32)>>;

/// Reference push with the engine's pre-incremented sequence numbering
/// (first event gets seq 1), matching `EventQueue::push`.
fn ref_push(h: &mut RefHeap, seq: &mut u64, t: f64, v: u32) {
    *seq += 1;
    h.push(Reverse((TotalF64(t), *seq, v)));
}

fn ref_pop(h: &mut RefHeap) -> Option<(f64, u64, u32)> {
    h.pop().map(|Reverse((t, s, v))| (t.0, s, v))
}

proptest! {
    #[test]
    fn wheel_pop_order_matches_binary_heap(
        // (is_pop, time delta in tenths of ms, re-push previous time).
        // Deltas reach 6000 ms — past the wheel's ~0.5 s in-ring horizon,
        // so streams exercise ring placement, the overflow heap, and its
        // migration back into the ring. `tie` re-pushes the exact
        // previous timestamp to pin the same-time seq tie-break.
        ops in proptest::collection::vec(
            (any::<bool>(), 0u32..60_000, any::<bool>()),
            1..400,
        )
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut h: RefHeap = BinaryHeap::new();
        let mut seq = 0u64;
        // Advances to the last popped time, like the simulator clock.
        let mut now = 0.0f64;
        let mut last_t = 0.0f64;
        let mut n = 0u32;
        for (is_pop, delta_tenths, tie) in ops {
            if is_pop {
                let got = q.pop();
                let want = ref_pop(&mut h);
                prop_assert_eq!(got, want);
                if let Some((t, _, _)) = got {
                    now = t;
                }
            } else {
                let t = if tie {
                    // May even lie before the wheel's cursor once pops
                    // advanced past it; order must still hold.
                    last_t
                } else {
                    now + f64::from(delta_tenths) / 10.0
                };
                last_t = t;
                n += 1;
                q.push(t, n);
                ref_push(&mut h, &mut seq, t, n);
            }
        }
        // Drain both completely: every remaining event, ties included,
        // must come out in identical (time, seq) order.
        loop {
            let got = q.pop();
            let want = ref_pop(&mut h);
            prop_assert_eq!(got, want);
            if got.is_none() {
                prop_assert!(q.is_empty());
                break;
            }
        }
    }

    #[test]
    fn in_order_far_runs_mixed_with_out_of_order_pushes_match_heap(
        // (op, a, b): op 0 pops `a % 8 + 1` events; op 1 pushes a sorted
        // run of `a % 64 + 1` events starting `b` tenths of ms past the
        // ~0.5 s horizon, `a % 7` ms apart (0 gives same-time ties); op 2
        // pushes one far event at a random offset, usually before the
        // run's back, so it must take the heap; op 3 pushes a near event.
        ops in proptest::collection::vec((0u8..4, any::<u32>(), 0u32..40_000), 1..200)
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut h: RefHeap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        let mut n = 0u32;
        let mut push = |q: &mut EventQueue<u32>, h: &mut RefHeap, t: f64| {
            n += 1;
            q.push(t, n);
            ref_push(h, &mut seq, t, n);
        };
        for (op, a, b) in ops {
            match op {
                0 => {
                    for _ in 0..a % 8 + 1 {
                        let got = q.pop();
                        prop_assert_eq!(got, ref_pop(&mut h));
                        if let Some((t, _, _)) = got {
                            now = t;
                        }
                    }
                }
                1 => {
                    let start = now + 600.0 + f64::from(b) / 10.0;
                    let step = f64::from(a % 7);
                    for i in 0..a % 64 + 1 {
                        push(&mut q, &mut h, start + f64::from(i) * step);
                    }
                }
                2 => push(&mut q, &mut h, now + 600.0 + f64::from(a % 40_000) / 10.0),
                _ => push(&mut q, &mut h, now + f64::from(b % 5_000) / 10.0),
            }
        }
        loop {
            let got = q.pop();
            prop_assert_eq!(got, ref_pop(&mut h));
            if got.is_none() {
                prop_assert!(q.is_empty());
                break;
            }
        }
    }

    #[test]
    fn wheel_drains_same_timestamp_bursts_in_push_order(
        times in proptest::collection::vec(0u32..50, 1..200)
    ) {
        // Heavily duplicated timestamps (50 distinct values, up to 200
        // events): pure seq tie-breaking under burst load.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut h: RefHeap = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, &t) in times.iter().enumerate() {
            let t = f64::from(t) * 2.0;
            q.push(t, i as u32);
            ref_push(&mut h, &mut seq, t, i as u32);
        }
        while let Some(want) = ref_pop(&mut h) {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }

    #[test]
    fn sparse_streams_across_edges_and_wraps_match_heap(
        // (op, a, b): op 0 pops `a % 4 + 1` events; op 1 pushes one event
        // `a % 600` buckets past the bucket of the last popped time, at
        // offset `b % 3` of {exact edge, mid-bucket, the last float below
        // the next edge} — so 255/256/257 buckets (the horizon's edge),
        // exact bucket starts and ring slots one revolution apart all
        // occur; op 2 pushes one event a gap of `a % 5` seconds ahead
        // (gaps past the horizon, sparse rings); op 3 pushes a sorted run
        // of `b % 8 + 1` events one second apart (the in-order overflow
        // run), interleaved with the pops of op 0.
        ops in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..300)
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut h: RefHeap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        let mut n = 0u32;
        let mut push = |q: &mut EventQueue<u32>, h: &mut RefHeap, t: f64| {
            n += 1;
            q.push(t, n);
            ref_push(h, &mut seq, t, n);
        };
        for (op, a, b) in ops {
            match op {
                0 => {
                    for _ in 0..a % 4 + 1 {
                        let got = q.pop();
                        prop_assert_eq!(got, ref_pop(&mut h));
                        if let Some((t, _, _)) = got {
                            now = t;
                        }
                    }
                }
                1 => {
                    let bucket = (now / WIDTH_MS).floor() + f64::from(a % (BUCKETS * 2 + 88));
                    let edge = bucket * WIDTH_MS;
                    let t = match b % 3 {
                        0 => edge,
                        1 => edge + WIDTH_MS / 2.0,
                        _ => f64::from_bits((edge + WIDTH_MS).to_bits() - 1),
                    };
                    push(&mut q, &mut h, t);
                }
                2 => push(&mut q, &mut h, now + f64::from(a % 5) * 1_000.0),
                _ => {
                    for i in 0..b % 8 + 1 {
                        push(&mut q, &mut h, now + 1_000.0 * f64::from(i + 1));
                    }
                }
            }
        }
        loop {
            let got = q.pop();
            prop_assert_eq!(got, ref_pop(&mut h));
            if got.is_none() {
                prop_assert!(q.is_empty());
                break;
            }
        }
    }
}

/// An interval of sparse arrivals one second apart (each past the
/// wheel's 0.5 s horizon when pushed), each spawning a completion
/// 300 ms later and a deadline 900 ms later, so the ring is never empty
/// but mostly holds empty buckets between its few events. The cursor
/// must jump to the next occupied bucket: every bucket it loads yields
/// at least one pop. Stepping through the empty 2 ms buckets instead
/// would load ~150 per arrival.
#[test]
fn sparse_stream_loads_at_most_one_bucket_per_pop() {
    let mut q: EventQueue<u8> = EventQueue::new();
    let (mut h, mut seq): (RefHeap, u64) = (BinaryHeap::new(), 0);
    const ARRIVAL: u8 = 0;
    for k in 0..200 {
        let t = f64::from(k) * 1_000.0;
        q.push(t, ARRIVAL);
        ref_push(&mut h, &mut seq, t, 0);
    }
    let mut pops = 0u64;
    while let Some((t, s, kind)) = q.pop() {
        assert_eq!(ref_pop(&mut h), Some((t, s, u32::from(kind))));
        pops += 1;
        if kind == ARRIVAL {
            for (dt, next) in [(300.0, 1), (900.0, 2)] {
                q.push(t + dt, next);
                ref_push(&mut h, &mut seq, t + dt, u32::from(next));
            }
        }
    }
    assert_eq!(pops, 600);
    assert!(h.is_empty());
    assert!(
        q.loads() <= pops,
        "{} bucket loads for {pops} pops: the cursor stopped on empty buckets",
        q.loads()
    );
}
