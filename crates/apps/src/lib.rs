//! # poly-apps — the six QoS-sensitive benchmark applications
//!
//! Kernel graphs for the workloads of Table II of the paper, each built
//! from the parallel-pattern IR with the pattern composition the table
//! lists per kernel:
//!
//! | App | Kernels | Module |
//! |---|---|---|
//! | Automatic Speech Recognition | LSTM ×2, Fully Connected ×2 (Fig. 6) | [`asr`] |
//! | Finance Quantitative Trading | PRNG, Black-Scholes, Reduce | [`fqt`] |
//! | Image Recognition | Convolution, Pooling, Fully Connected | [`image_recognition`] |
//! | Cloud Storage | RS Encoder, RS Decoder | [`cloud_storage`] |
//! | Online Matrix Factorization | Read Data, SGD Update | [`matrix_factorization`] |
//! | WebP Transcoding | Intra-prediction, Probability Counting, Arithmetic Coding | [`webp_transcoding`] |
//!
//! Workload sizes (shapes, operator mixes, iteration counts) are synthetic
//! calibrations: the paper's proprietary inputs are unavailable, so sizes
//! were chosen to land per-kernel latencies in the tens-of-milliseconds
//! regime of Fig. 1(f) under the analytical device models, preserving each
//! kernel's *structural* character (sequential iteration depth, arithmetic
//! intensity, pattern mix, platform affinity).
//!
//! Note: Table II lists "RS Decoder" as the second kernel of Matrix
//! Factorization — an apparent copy-paste slip; the kernel of an online MF
//! service is the SGD update \[17\], which is what we implement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asr_app;
mod cs_app;
mod fqt_app;
mod ir_app;
mod mf_app;
mod wt_app;

pub use asr_app::asr;
pub use cs_app::cloud_storage;
pub use fqt_app::fqt;
pub use ir_app::image_recognition;
pub use mf_app::matrix_factorization;
pub use wt_app::webp_transcoding;

use poly_ir::KernelGraph;

/// The paper's target tail-latency (p99) constraint in milliseconds.
pub const QOS_BOUND_MS: f64 = 200.0;

/// The annotation-DSL source of one benchmark (committed under
/// `crates/apps/dsl/`, regenerated from the builders via
/// [`poly_ir::print_app`]). Parsing it yields a graph equivalent to the
/// builder construction — the equivalence is tested.
#[must_use]
pub fn dsl_source(name: &str) -> Option<&'static str> {
    match name {
        "asr" => Some(include_str!("../dsl/asr.poly")),
        "fqt" => Some(include_str!("../dsl/fqt.poly")),
        "ir" => Some(include_str!("../dsl/ir.poly")),
        "cs" => Some(include_str!("../dsl/cs.poly")),
        "mf" => Some(include_str!("../dsl/mf.poly")),
        "wt" => Some(include_str!("../dsl/wt.poly")),
        _ => None,
    }
}

/// Build a benchmark from its committed DSL source instead of the typed
/// builders (exercises the full frontend path).
///
/// # Panics
/// Panics if the committed source no longer parses — a build-time
/// invariant guarded by tests.
#[must_use]
pub fn from_dsl(name: &str) -> Option<KernelGraph> {
    let source = dsl_source(name)?;
    let module = poly_ir::annotation::parse(source).expect("committed DSL parses");
    module.apps.into_iter().find(|a| a.name() == name)
}

/// All six benchmarks in Table II order.
#[must_use]
pub fn suite() -> Vec<KernelGraph> {
    vec![
        asr(),
        fqt(),
        image_recognition(),
        cloud_storage(),
        matrix_factorization(),
        webp_transcoding(),
    ]
}

/// Look up one benchmark by its short name
/// (`asr|fqt|ir|cs|mf|wt`).
#[must_use]
pub fn by_name(name: &str) -> Option<KernelGraph> {
    match name {
        "asr" => Some(asr()),
        "fqt" => Some(fqt()),
        "ir" => Some(image_recognition()),
        "cs" => Some(cloud_storage()),
        "mf" => Some(matrix_factorization()),
        "wt" => Some(webp_transcoding()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_six_apps_with_table_ii_names() {
        let names: Vec<String> = suite().iter().map(|a| a.name().to_string()).collect();
        assert_eq!(names, vec!["asr", "fqt", "ir", "cs", "mf", "wt"]);
    }

    #[test]
    fn by_name_roundtrips() {
        for app in suite() {
            let found = by_name(app.name()).expect("known name");
            assert_eq!(found.name(), app.name());
            assert_eq!(found.len(), app.len());
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_app_is_a_valid_dag_with_sources_and_sinks() {
        for app in suite() {
            assert_eq!(app.topological_order().len(), app.len());
            assert!(!app.sources().is_empty());
            assert!(!app.sinks().is_empty());
        }
    }

    #[test]
    fn dsl_sources_build_equivalent_apps() {
        for app in suite() {
            let from_dsl =
                from_dsl(app.name()).unwrap_or_else(|| panic!("{} has DSL source", app.name()));
            assert_eq!(from_dsl.len(), app.len());
            assert_eq!(from_dsl.edges().len(), app.edges().len());
            for (a, b) in app.kernels().iter().zip(from_dsl.kernels()) {
                assert_eq!(a.name(), b.name());
                let (pa, pb) = (a.profile(), b.profile());
                assert_eq!(pa.flops, pb.flops, "{}::{}", app.name(), a.name());
                assert_eq!(pa.iterations, pb.iterations);
                assert_eq!(pa.unfused_bytes, pb.unfused_bytes);
            }
        }
    }

    #[test]
    fn every_kernel_has_positive_work() {
        for app in suite() {
            for k in app.kernels() {
                let p = k.profile();
                assert!(p.flops > 0, "{}:{}", app.name(), k.name());
                assert!(p.iterations >= 1);
                assert!(p.unfused_bytes > 0);
            }
        }
    }
}
