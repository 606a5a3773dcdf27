//! Pareto-frontier extraction over up to three minimized objectives.
//!
//! One sort and one sweep replace the all-pairs dominance scan: sort the
//! objective vectors lexicographically (the candidate index breaks ties),
//! then keep a vector iff no vector kept before it is ≤ it in every
//! objective. The sort puts every dominator — and every earlier duplicate
//! — of a vector ahead of it, and "≤ in every objective" is transitive,
//! so checking the kept vectors alone is exact. Every vector before the
//! current one is ≤ it in the first objective, so the check reduces to
//! the other two, which a staircase answers in O(log f) for a front of
//! `f` points: O(n log n) in all, where the scan cost O(n²).

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Objectives the sweep handles; fewer are padded with a constant, which
/// never decides a comparison.
const DIMS: usize = 3;

/// Return the indices of the Pareto-optimal elements of `items` under the
/// objective vector `objectives` (1 to 3 objectives, all minimized).
///
/// An element is kept iff no other element is ≤ in every objective and <
/// in at least one. Ties (identical vectors, −0.0 equal to +0.0) keep the
/// first occurrence. A vector holding a NaN compares false against
/// everything, so it is always kept and removes nothing. The result is
/// sorted by the first objective, ascending, ties in index order.
///
/// Runs in O(n log n) time. Besides the staircase's tree nodes it
/// allocates a few buffers per call, none per element.
///
/// ```rust
/// let pts = [(1.0, 5.0), (2.0, 2.0), (3.0, 3.0), (4.0, 1.0)];
/// let front = poly_dse::pareto_front(&pts, |p| [p.0, p.1]);
/// assert_eq!(front, vec![0, 1, 3]); // (3,3) dominated by (2,2)
/// ```
pub fn pareto_front<T, const N: usize>(
    items: &[T],
    mut objectives: impl FnMut(&T) -> [f64; N],
) -> Vec<usize> {
    const { assert!(N >= 1 && N <= DIMS, "pareto_front takes 1 to 3 objectives") };
    let keys: Vec<[f64; DIMS]> = items
        .iter()
        .map(|item| {
            let mut key = [0.0; DIMS];
            for (k, x) in key.iter_mut().zip(objectives(item)) {
                // `<=` treats −0.0 and +0.0 as equal; the sort and the
                // staircase order by bits, so fold them first.
                *k = if x == 0.0 { 0.0 } else { x };
            }
            key
        })
        .collect();

    let (mut order, mut keep): (Vec<usize>, Vec<usize>) =
        (0..keys.len()).partition(|&i| !keys[i].iter().any(|x| x.is_nan()));
    order.sort_unstable_by(|&a, &b| lex(&keys[a], &keys[b]).then(a.cmp(&b)));

    // Staircase over the kept points' (objective 2, objective 3): keys
    // ascend while values strictly descend, so the entry at or below `y`
    // holds the least objective 3 among kept points with objective 2 ≤ y.
    let mut stair: BTreeMap<u64, f64> = BTreeMap::new();
    for i in order {
        let [_, y, z] = keys[i];
        let y_key = ordered(y);
        if stair
            .range(..=y_key)
            .next_back()
            .is_some_and(|(_, &z_min)| z_min <= z)
        {
            continue;
        }
        // The new step covers every step at or above `y` that it beats.
        while let Some((&k, &z_k)) = stair.range(y_key..).next() {
            if z_k < z {
                break;
            }
            stair.remove(&k);
        }
        stair.insert(y_key, z);
        keep.push(i);
    }

    // The scan's order: a stable sort of index order by the first
    // objective, NaN comparing equal to everything.
    keep.sort_unstable();
    keep.sort_by(|&x, &y| {
        keys[x][0]
            .partial_cmp(&keys[y][0])
            .unwrap_or(Ordering::Equal)
    });
    keep
}

/// Lexicographic order of two NaN-free keys.
fn lex(a: &[f64; DIMS], b: &[f64; DIMS]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// `x`'s bits mapped so that unsigned order is numeric order (for
/// non-NaN `x` without −0.0).
fn ordered(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The all-pairs dominance scan the sweep replaced: the oracle the tests
/// hold [`pareto_front`] to.
#[cfg(test)]
pub(crate) fn quadratic_front<T, const N: usize>(
    items: &[T],
    mut objectives: impl FnMut(&T) -> [f64; N],
) -> Vec<usize> {
    let vecs: Vec<[f64; N]> = items.iter().map(&mut objectives).collect();
    let mut keep = Vec::new();
    'outer: for (i, a) in vecs.iter().enumerate() {
        for (j, b) in vecs.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominates =
                b.iter().zip(a).all(|(bj, ai)| bj <= ai) && b.iter().zip(a).any(|(bj, ai)| bj < ai);
            if dominates {
                continue 'outer;
            }
            // Identical vectors: keep only the earliest.
            if j < i && b == a {
                continue 'outer;
            }
        }
        keep.push(i);
    }
    keep.sort_by(|&x, &y| {
        vecs[x][0]
            .partial_cmp(&vecs[y][0])
            .unwrap_or(Ordering::Equal)
    });
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_element_is_optimal() {
        assert_eq!(pareto_front(&[(1.0,)], |p| [p.0]), vec![0]);
    }

    #[test]
    fn dominated_points_removed() {
        let pts = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0)];
        let front = pareto_front(&pts, |p| [p.0, p.1]);
        assert_eq!(front, vec![2, 0]);
    }

    #[test]
    fn duplicates_kept_once() {
        let pts = [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)];
        let front = pareto_front(&pts, |p| [p.0, p.1]);
        assert_eq!(front, vec![0]);
    }

    #[test]
    fn signed_zeros_are_duplicates() {
        let pts = [(0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (1.0, 0.0)];
        let front = pareto_front(&pts, |p| [p.0, p.1]);
        assert_eq!(front, vec![0, 2]);
    }

    #[test]
    fn nan_vectors_are_kept_and_remove_nothing() {
        let pts = [(1.0, f64::NAN), (2.0, 2.0), (1.0, 1.0), (0.5, f64::NAN)];
        let front = pareto_front(&pts, |p| [p.0, p.1]);
        assert_eq!(front, vec![3, 0, 2]);
    }

    #[test]
    fn front_sorted_by_first_objective() {
        let pts = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)];
        let front = pareto_front(&pts, |p| [p.0, p.1]);
        assert_eq!(front, vec![1, 2, 0]);
    }

    #[test]
    fn ties_in_the_first_objective_stay_in_index_order() {
        // The sweep visits (2, 1, 5) before (2, 3, 0); the result keeps
        // index order within the tie, as the scan returned it.
        let pts = [(2.0, 3.0, 0.0), (2.0, 1.0, 5.0), (1.0, 9.0, 9.0)];
        let front = pareto_front(&pts, |p| [p.0, p.1, p.2]);
        assert_eq!(front, vec![2, 0, 1]);
    }

    #[test]
    fn three_objectives() {
        let pts = [
            (1.0, 5.0, 9.0), // a
            (2.0, 6.0, 1.0), // b: worse lat+power than a, saved by service
            (3.0, 7.0, 5.0), // c: dominated by b (2<3, 6<7, 1<5)
            (4.0, 8.0, 9.5), // d: dominated by a (1<4, 5<8, 9<9.5)
        ];
        let front = pareto_front(&pts, |p| [p.0, p.1, p.2]);
        assert_eq!(front, vec![0, 1]);
    }

    #[test]
    fn staircase_step_is_replaced_by_a_lower_one() {
        // (1,5,5) then (2,5,1): same objective 2, lower objective 3, so
        // the second replaces the first's step and (3,6,3) falls to it.
        let pts = [
            (1.0, 5.0, 5.0),
            (2.0, 5.0, 1.0),
            (3.0, 6.0, 3.0),
            (4.0, 4.0, 4.0),
        ];
        let front = pareto_front(&pts, |p| [p.0, p.1, p.2]);
        assert_eq!(front, vec![0, 1, 3]);
    }

    #[test]
    fn empty_input_empty_front() {
        let pts: [(f64, f64); 0] = [];
        assert!(pareto_front(&pts, |p| [p.0, p.1]).is_empty());
    }

    #[test]
    fn monotone_along_front() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = f64::from(i);
                (x, 100.0 - x + if i % 3 == 0 { 20.0 } else { 0.0 })
            })
            .collect();
        let front = pareto_front(&pts, |p| [p.0, p.1]);
        // Along the front, second objective strictly decreases.
        let ys: Vec<f64> = front.iter().map(|&i| pts[i].1).collect();
        assert!(ys.windows(2).all(|w| w[1] < w[0]));
    }

    /// Objective values drawn from a small grid, so sets carry duplicate
    /// vectors and ties in single objectives; codes past the grid are
    /// −0.0 and (outside the first objective) NaN.
    fn value(code: u8) -> f64 {
        match code {
            0..=3 => f64::from(code),
            4 => -0.0,
            _ => f64::NAN,
        }
    }

    fn arb_set() -> impl Strategy<Value = Vec<[f64; 3]>> {
        prop_oneof![
            proptest::collection::vec((0u8..5, 0u8..6, 0u8..6), 0..40).prop_map(|v| v
                .into_iter()
                .map(|(a, b, c)| [value(a), value(b), value(c)])
                .collect()),
            proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0), 0..80)
                .prop_map(|v| v.into_iter().map(|(a, b, c)| [a, b, c]).collect()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The sweep returns the scan's indices in the scan's order on 1-,
        /// 2- and 3-objective sets.
        #[test]
        fn sweep_matches_the_quadratic_scan(pts in arb_set()) {
            prop_assert_eq!(pareto_front(&pts, |p| [p[0], p[1], p[2]]), quadratic_front(&pts, |p| [p[0], p[1], p[2]]));
            prop_assert_eq!(pareto_front(&pts, |p| [p[0], p[1]]), quadratic_front(&pts, |p| [p[0], p[1]]));
            prop_assert_eq!(pareto_front(&pts, |p| [p[0], p[2]]), quadratic_front(&pts, |p| [p[0], p[2]]));
            prop_assert_eq!(pareto_front(&pts, |p| [p[0]]), quadratic_front(&pts, |p| [p[0]]));
        }
    }
}
