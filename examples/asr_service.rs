//! The paper's motivating scenario end-to-end (Section II-B): the ASR
//! service on the three Setting-I leaf-node architectures, comparing
//! maximum throughput and energy proportionality under the 200 ms p99
//! bound.
//!
//! ```sh
//! cargo run --release --example asr_service
//! ```

use poly::apps::{asr, QOS_BOUND_MS};
use poly::core::provision::{Architecture, Setting};
use poly_bench::System;

fn main() {
    let app = asr();
    println!(
        "ASR: {} kernels, QoS bound {} ms p99 (Fig. 6 DAG)",
        app.len(),
        QOS_BOUND_MS
    );

    // Each system measures the way Figs. 1(b) and 8 do: homogeneous
    // baselines run one fixed policy, Heter-Poly re-plans per load level
    // with one feedback probe; the power curve samples six load levels
    // for the EP metric (Eq. 1).
    let mut results = Vec::new();
    for arch in [
        Architecture::HomoGpu,
        Architecture::HomoFpga,
        Architecture::HeterPoly,
    ] {
        let mut sys = System::new(&app, Setting::I, arch, QOS_BOUND_MS);
        let max = sys.max_rps();
        let curve = sys.ep_curve(max, 6);
        let ep = curve.ep();
        println!(
            "{:11} ({} GPU + {} FPGA): max {:5.2} RPS, EP {:.2}, power {:?} W",
            arch.name(),
            sys.setup.gpus(),
            sys.setup.fpgas(),
            max,
            ep,
            curve
                .points()
                .iter()
                .map(|p| p.power_w.round())
                .collect::<Vec<_>>()
        );
        results.push((arch, max, ep));
    }

    // The paper's headline shape (Section II-B): Heter-Poly sustains the
    // highest throughput and is the most energy proportional.
    let het = results
        .iter()
        .find(|(a, _, _)| *a == Architecture::HeterPoly)
        .expect("present");
    assert!(
        results.iter().all(|(_, m, _)| het.1 >= *m),
        "Heter-Poly should sustain the highest load"
    );
    assert!(
        results.iter().all(|(_, _, e)| het.2 >= *e),
        "Heter-Poly should be the most energy proportional"
    );
    println!("Heter-Poly wins on both throughput and energy proportionality.");
}
