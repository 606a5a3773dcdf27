//! Dependency-free fork-join parallelism on `std::thread::scope`.
//!
//! The experiment pipeline is embarrassingly parallel at several levels
//! (independent simulations of a load sweep, independent kernels of a
//! design-space exploration, independent figures of the evaluation), but
//! the build environment cannot pull a thread-pool crate from a registry.
//! This crate provides the few fork-join primitives the workspace needs,
//! built only on the standard library.
//!
//! **Determinism contract:** results are collected *by input index*, never
//! by completion order, so for any pure `f` the output of [`par_map`] is
//! byte-identical to the serial `items.iter().map(f)` regardless of the
//! job count or thread scheduling. Work distribution (which worker claims
//! which index) is the only nondeterministic part, and it is unobservable
//! in the results.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: `POLY_JOBS` if set, otherwise the machine's
/// available parallelism.
///
/// # Errors
/// Names the variable when it is set but not a positive integer (`0`,
/// `abc` and the empty string included) instead of silently falling
/// back.
pub fn jobs() -> Result<usize, String> {
    let raw = std::env::var_os("POLY_JOBS").map(|v| v.to_string_lossy().into_owned());
    jobs_from(raw.as_deref())
}

/// [`jobs`] given `POLY_JOBS`'s raw value (`None` = unset).
fn jobs_from(raw: Option<&str>) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(default_jobs());
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("POLY_JOBS=`{raw}` is not a positive integer")),
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Apply `f` to every item of `items` using up to `jobs` worker threads
/// and return the results **in input order**.
///
/// `f` receives `(index, &item)`. With `jobs <= 1` (or fewer than two
/// items) everything runs inline on the caller's thread — the serial and
/// parallel paths produce identical results for pure `f`.
///
/// # Panics
/// If `f` panics for any item, the panic propagates to the caller once
/// the scope joins (matching the serial behaviour of the first panicking
/// call, except that later items may already have started).
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.min(items.len()).max(1);
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    {
        let slots = &slots;
        let next = &next;
        let f = &f;
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(i, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });
    }
    slots
        .iter_mut()
        .map(|m| {
            m.get_mut()
                .expect("result slot poisoned")
                .take()
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Like [`par_map`] but consumes the items, so `f` can take ownership
/// (e.g. drive a stateful `System` per task and return it).
///
/// # Panics
/// Propagates panics from `f` like [`par_map`].
pub fn par_map_owned<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs = jobs.min(items.len()).max(1);
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<R>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    {
        let slots = &slots;
        let inputs = &inputs;
        let next = &next;
        let f = &f;
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = inputs.get(i) else { break };
                    let item = slot
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("each index claimed once");
                    let r = f(i, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });
    }
    slots
        .iter_mut()
        .map(|m| {
            m.get_mut()
                .expect("result slot poisoned")
                .take()
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Like [`par_map`] but gives `f` **mutable** access to each item in
/// place (e.g. step a fleet of simulator nodes, one worker per node, and
/// collect each node's interval stats).
///
/// # Panics
/// Propagates panics from `f` like [`par_map`].
pub fn par_map_mut<T, R, F>(jobs: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let jobs = jobs.min(items.len()).max(1);
    if jobs <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let inputs: Vec<Mutex<Option<&mut T>>> =
        items.iter_mut().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<R>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    {
        let slots = &slots;
        let inputs = &inputs;
        let next = &next;
        let f = &f;
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = inputs.get(i) else { break };
                    let item = slot
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("each index claimed once");
                    let r = f(i, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });
    }
    slots
        .iter_mut()
        .map(|m| {
            m.get_mut()
                .expect("result slot poisoned")
                .take()
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let par = par_map(jobs, &items, |_, &x| x * x + 1);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn indices_line_up_with_items() {
        let items: Vec<usize> = (0..50).collect();
        let out = par_map(4, &items, |i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn owned_variant_moves_items_through() {
        let items: Vec<String> = (0..20).map(|i| format!("s{i}")).collect();
        let expect = items.clone();
        let out = par_map_owned(4, items, |i, s| {
            assert_eq!(s, format!("s{i}"));
            s
        });
        assert_eq!(out, expect);
    }

    #[test]
    fn mut_variant_mutates_in_place_and_returns_in_order() {
        let mut items: Vec<u64> = (0..57).collect();
        for jobs in [1, 2, 8] {
            let out = par_map_mut(jobs, &mut items, |i, x| {
                *x += 1;
                (i, *x)
            });
            for (i, &(idx, val)) in out.iter().enumerate() {
                assert_eq!(idx, i, "jobs={jobs}");
                assert_eq!(val, items[i], "jobs={jobs}");
            }
        }
        // Three passes, each +1 per element.
        let expect: Vec<u64> = (0..57).map(|x| x + 3).collect();
        assert_eq!(items, expect);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[5u32], |_, &x| x + 1), vec![6]);
        assert_eq!(par_map_owned(8, vec![5u32], |_, x| x + 1), vec![6]);
        assert_eq!(par_map_mut(8, &mut [5u32], |_, x| *x + 1), vec![6]);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(0, &items, |_, &x| x), vec![1, 2, 3]);
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        let res = std::panic::catch_unwind(|| {
            par_map(4, &items, |_, &x| {
                assert!(x != 7, "boom");
                x
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn jobs_env_override_is_respected() {
        // jobs() itself reads the environment; exercise the parser on
        // representative values without mutating the test process env.
        assert_eq!(jobs_from(Some("3")), Ok(3));
        assert_eq!(jobs_from(Some(" 2\n")), Ok(2));
        assert_eq!(jobs_from(None), Ok(default_jobs()));
        for bad in ["0", "abc", "", "-1", "1.5"] {
            let e = jobs_from(Some(bad)).unwrap_err();
            assert!(e.contains("POLY_JOBS"), "{e}");
        }
    }
}
