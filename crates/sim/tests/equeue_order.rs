//! Property test: the timer-wheel [`EventQueue`] pops in exactly the
//! order of the `BinaryHeap<Reverse<(TotalF64, seq, payload)>>` it
//! replaced — `(time, insertion seq)` lexicographic, ties broken by
//! arrival order — over random interleaved push/pop streams whose times
//! span ties, the wheel's in-ring horizon, and the far-future overflow
//! path — both its in-order run and its heap.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use poly_sim::{EventQueue, TotalF64};

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
}
