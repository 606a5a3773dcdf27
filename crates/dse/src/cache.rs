//! Memoized design-space exploration.
//!
//! Every figure of the evaluation (and the core provisioner) explores the
//! same handful of kernels against the same device catalog. Exploration is
//! pure — the resulting [`KernelDesignSpace`] depends only on the kernel
//! and the explorer's device models — so the work can be done once and
//! shared. [`DesignSpaceCache`] memoizes [`Explorer::explore`] keyed by a
//! structural fingerprint of the kernel and of the explorer, with
//! at-most-once semantics under concurrency: when several threads ask for
//! the same entry, one computes and the rest wait.

use crate::{Explorer, KernelDesignSpace};
use poly_ir::{print_kernel, Kernel};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// FNV-1a over a byte string: a stable, process-independent hash (the
/// standard library's `DefaultHasher` is randomly seeded per process, so
/// it cannot serve as a reproducible fingerprint).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Structural fingerprint of a kernel: the canonical printed form (which
/// covers name, patterns, shapes, ops, and edges) plus the iteration
/// count.
#[must_use]
pub fn kernel_fingerprint(kernel: &Kernel) -> u64 {
    let mut text = print_kernel(kernel);
    text.push_str(&format!("\niterations={}", kernel.iterations()));
    fnv1a(text.as_bytes())
}

/// Fingerprint of everything that parameterizes an [`Explorer`]: both
/// device models and the exploration options, via their debug forms
/// (exhaustive over fields by construction).
#[must_use]
pub fn explorer_fingerprint(explorer: &Explorer) -> u64 {
    let text = format!("{:?}", explorer);
    fnv1a(text.as_bytes())
}

type Key = (u64, u64);
type Entry = Arc<OnceLock<Arc<KernelDesignSpace>>>;

/// Thread-safe memoization of [`Explorer::explore`], keyed by
/// `(kernel fingerprint, explorer fingerprint)`.
///
/// The map lock is held only to look up or insert the entry cell; the
/// (expensive) exploration itself runs outside it, under the entry's own
/// `OnceLock`, so distinct kernels explore concurrently while duplicate
/// requests for one kernel block until the first finishes — each design
/// space is computed **at most once** per process.
#[derive(Debug, Default)]
pub struct DesignSpaceCache {
    map: Mutex<HashMap<Key, Entry>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl DesignSpaceCache {
    /// A fresh, empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache shared by the experiment drivers and the
    /// core provisioner.
    #[must_use]
    pub fn global() -> &'static Self {
        static GLOBAL: OnceLock<DesignSpaceCache> = OnceLock::new();
        GLOBAL.get_or_init(Self::new)
    }

    /// `explorer.explore(kernel)`, memoized.
    ///
    /// Returns the cached design space when the same kernel/explorer pair
    /// was explored before (a *hit*); otherwise computes it (a *miss*),
    /// caches it, and returns it. Concurrent misses on the same key
    /// compute once and share.
    #[must_use]
    pub fn explore(&self, explorer: &Explorer, kernel: &Kernel) -> Arc<KernelDesignSpace> {
        let key = (kernel_fingerprint(kernel), explorer_fingerprint(explorer));
        let entry: Entry = {
            let mut map = self.map.lock().expect("design-space cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        if let Some(space) = entry.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(space);
        }
        let mut computed = false;
        let space = entry.get_or_init(|| {
            computed = true;
            Arc::new(explorer.explore(kernel))
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            // Another thread beat us to the initialization.
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(space)
    }

    /// Explore every kernel of an application through the cache, on up to
    /// `jobs` worker threads, returning owned spaces in kernel order (the
    /// layout scheduler plans and policies index by).
    #[must_use]
    pub fn explore_graph(
        &self,
        explorer: &Explorer,
        kernels: &[Kernel],
        jobs: usize,
    ) -> Vec<KernelDesignSpace> {
        poly_par::par_map(jobs, kernels, |_, k| (*self.explore(explorer, k)).clone())
    }

    /// `(hits, misses)` so far. A miss is one actual [`Explorer::explore`]
    /// invocation; experiment drivers report these to show exploration ran
    /// at most once per (kernel, device-pair).
    #[must_use]
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct design spaces currently cached.
    ///
    /// # Panics
    /// Panics if the cache lock was poisoned by a panicking explorer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("design-space cache poisoned").len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExplorerConfig;
    use poly_device::catalog;
    use poly_ir::{KernelBuilder, OpFunc, PatternKind, Shape};

    fn kernel(name: &str, iterations: u64) -> Kernel {
        KernelBuilder::new(name)
            .pattern("m", PatternKind::Map, Shape::d2(512, 256), &[OpFunc::Mac])
            .chain()
            .iterations(iterations)
            .build()
            .unwrap()
    }

    #[test]
    fn cached_result_equals_fresh_exploration() {
        let cache = DesignSpaceCache::new();
        let explorer = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
        let k = kernel("k", 100);
        let cached = cache.explore(&explorer, &k);
        assert_eq!(*cached, explorer.explore(&k));
        assert_eq!(cache.stats(), (0, 1));
    }

    #[test]
    fn second_lookup_hits_and_shares_storage() {
        let cache = DesignSpaceCache::new();
        let explorer = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
        let k = kernel("k", 100);
        let a = cache.explore(&explorer, &k);
        let b = cache.explore(&explorer, &k);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_kernels_and_explorers_get_distinct_entries() {
        let cache = DesignSpaceCache::new();
        let e1 = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
        let e2 = Explorer::with_config(
            catalog::amd_w9100(),
            catalog::xilinx_7v3(),
            ExplorerConfig { max_points: 6 },
        );
        let _ = cache.explore(&e1, &kernel("a", 100));
        let _ = cache.explore(&e1, &kernel("b", 100));
        let _ = cache.explore(&e1, &kernel("a", 200)); // iterations differ
        let _ = cache.explore(&e2, &kernel("a", 100)); // explorer differs
        assert_eq!(cache.stats(), (0, 4));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn fingerprints_are_stable_and_structural() {
        let k1 = kernel("k", 100);
        let k2 = kernel("k", 100);
        assert_eq!(kernel_fingerprint(&k1), kernel_fingerprint(&k2));
        assert_ne!(
            kernel_fingerprint(&k1),
            kernel_fingerprint(&kernel("k", 101))
        );
        let e1 = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
        let e2 = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
        assert_eq!(explorer_fingerprint(&e1), explorer_fingerprint(&e2));
        let e3 = Explorer::new(catalog::nvidia_k20(), catalog::xilinx_7v3());
        assert_ne!(explorer_fingerprint(&e1), explorer_fingerprint(&e3));
    }

    #[test]
    fn concurrent_misses_compute_once() {
        let cache = DesignSpaceCache::new();
        let explorer = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
        let k = kernel("k", 100);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _ = cache.explore(&explorer, &k);
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "explored exactly once");
        assert_eq!(hits, 7);
    }
}
