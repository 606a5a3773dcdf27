//! End-to-end and per-layer benchmark of the Poly stack.
//!
//! ```text
//! poly-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]
//! ```
//!
//! Workloads: `fleet-overload`, `node-capacity` and `tenant-elastic` (see
//! `README.md` beside this crate for why each exists). A run sets up,
//! replays each of its five arrival seeds once with request telemetry to
//! get the simulated metrics (their medians), replays the fixed timed seed
//! once as the reference, then repeats untraced replays of the timed
//! seed for `--seconds`, with a few cold set-ups after each. Every
//! repetition must reproduce the reference bit for bit. Host times are
//! scaled to a reference host speed by a calibration loop run around
//! each repetition and each gap of set-ups; `wall_s` is the median
//! scaled repetition and `setup_s` the median scaled set-up. With
//! `--trace 1` untraced and traced repetitions alternate on the run's
//! first seed, and the per-layer metrics are the traced repetitions'
//! medians. The last line of standard output is one JSON object.
//!
//! `--repeat <runs>` runs the workload that many times as child
//! processes, on consecutive seeds, and prints each metric's median and
//! quartiles across the runs.

mod fleet;
mod node;
mod probe;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use poly::sim::quantile_of;

use probe::{per, LayerValues, OutcomeRecorder, Outcomes, CALIBRATION_REF_S};
use stats::{at_reference_speed, digest, goodput_pct, median, quartiles};

/// Cold set-ups timed after each timed repetition; `setup_s` is the
/// median of every set-up of the run, so its samples are spread over the
/// run like the repetitions are.
const SETUPS_PER_GAP: usize = 3;
/// Fewest untraced (and traced) repetitions a run makes, however long
/// they take.
const MIN_REPS: usize = 5;
/// Arrival seeds per run: `--seed s` replays seeds `5s .. 5s + 4`, so
/// runs on different seeds share none. Each simulated metric is the
/// median over the five replays: one overloaded replay settles into one
/// of several throughput regimes depending on its arrivals, and a rare
/// seed's queue runs away, so a single seed's figures are multimodal.
const SIM_SEEDS: u64 = 5;
/// Arrival seed of every untraced timed repetition, in every run. The
/// regime a replay settles into also sets its host cost (up to a quarter
/// apart between seeds on `fleet-overload`), so host time is measured
/// on one input that every run shares. On `fleet-overload` this seed
/// settles into the regime most seeds do (about 123k completions).
const TIMED_SEED: u64 = 5;

/// A workload as the measurement protocol drives it.
pub trait Workload {
    /// What set-up leaves ready to replay.
    type Ready;
    /// The simulated output of one repetition.
    type Out;
    /// Everything from nothing to ready-to-replay.
    fn setup(&self) -> Result<Self::Ready, String>;
    /// One repetition of the measured phase, returning its output and
    /// its host seconds (set-up of the repetition excluded).
    fn replay(
        &self,
        ready: &Self::Ready,
        seed: u64,
        recorder: Option<&OutcomeRecorder>,
    ) -> Result<(Self::Out, f64), String>;
    /// Rendering of the output that two repetitions must agree on.
    fn render(out: &Self::Out) -> String;
    /// Simulated completions of one repetition.
    fn completions(out: &Self::Out) -> usize;
    /// Correctness gate and simulated metrics of the reference output.
    fn score(&self, seed: u64, out: &Self::Out, outcomes: &Outcomes) -> Result<Score, String>;
    /// The cold explore set-up made.
    fn explored(ready: &Self::Ready) -> &probe::ColdExplore;
    /// One traced repetition, checked against the reference output:
    /// its host seconds and per-layer values.
    fn traced(
        &self,
        ready: &Self::Ready,
        seed: u64,
        reference: &Self::Out,
    ) -> Result<(f64, LayerValues), String>;
}

/// Simulated outcome of one reference repetition (or request counts
/// summed over several).
#[derive(Default)]
pub struct Score {
    /// Requests offered.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Completions over their class's bound.
    pub violations: usize,
    /// Requests refused by admission control or dropped by a node.
    pub shed: usize,
    /// Requests abandoned at their deadline.
    pub timed_out: usize,
    /// Requests failed after exhausting their retries.
    pub failed: usize,
    /// Requests still queued, in flight or deferred when the replay ends.
    pub unfinished: usize,
    /// End-to-end latency of every completion, sim ms.
    pub latencies_ms: Vec<f64>,
    /// Simulated energy, J.
    pub energy_j: f64,
    /// See `sim_max_rps` in `README.md`.
    pub max_rps: f64,
}

impl Score {
    /// Add another repetition's request counts to these.
    fn absorb(&mut self, other: &Score) {
        self.offered += other.offered;
        self.completed += other.completed;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
        self.unfinished += other.unfinished;
    }

    /// `sim_p50_ms`, `sim_p99_ms`, `sim_goodput_pct`,
    /// `sim_energy_j_per_req` and `sim_max_rps` of this repetition.
    fn sim_values(&self) -> [f64; 5] {
        let mut scratch = Vec::new();
        let mut q = |p| quantile_of(&self.latencies_ms, p, &mut scratch).unwrap_or(0.0);
        [
            q(0.5),
            q(0.99),
            goodput_pct(self.offered, self.completed, self.violations),
            per(self.energy_j, self.completed),
            self.max_rps,
        ]
    }
}

/// End-to-end metrics (name, unit), printed by an untraced run. Units
/// with a `sim_` prefix are simulated time and energy; the rest are
/// measured on the host.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("completions_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_p50_ms", "sim_ms"),
    ("sim_p99_ms", "sim_ms"),
    ("sim_goodput_pct", "%"),
    ("sim_energy_j_per_req", "sim_J"),
    ("sim_max_rps", "sim_req/s"),
];

/// Per-layer metrics (name, unit), printed by a traced run. A layer the
/// workload does not reach reports zero calls and zero time.
const PER_LAYER: [(&str, &str); 22] = [
    ("dse.explore.calls", "count"),
    ("dse.explore.us_per_call", "us"),
    ("dse.explore.points", "count"),
    ("core.optimizer.plan.calls", "count"),
    ("core.optimizer.plan.us_per_call", "us"),
    ("sim.steady_state.calls", "count"),
    ("sim.steady_state.ms_per_call", "ms"),
    ("core.runtime.replay_s", "s"),
    ("core.runtime.ns_per_completion", "ns"),
    ("sim.advance.ns_per_completion", "ns"),
    ("sim.advance.ns_per_completion.depth_lt_100", "ns"),
    ("sim.advance.ns_per_completion.depth_100_10k", "ns"),
    ("sim.advance.ns_per_completion.depth_ge_10k", "ns"),
    ("sim.queue_depth.max", "count"),
    ("cluster.node.replan.calls", "count"),
    ("cluster.node.replan.us_per_call", "us"),
    ("cluster.node.replan.changed_ratio", "ratio"),
    ("cluster.router.route.us_per_interval", "us"),
    ("cluster.router.shed_ratio", "ratio"),
    ("cluster.governor.split.us_per_interval", "us"),
    ("cluster.driver.self_us_per_interval", "us"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

const USAGE: &str =
    "usage: poly-perfbench --workload <fleet-overload|tenant-elastic|node-capacity> \
--seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            "--repeat" => {
                let n: usize = value.parse().map_err(|_| bad("expected an integer"))?;
                if !(2..=100).contains(&n) {
                    return Err(bad("expected 2 to 100 runs"));
                }
                repeat = Some(n);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        repeat,
    })
}

/// One run's result: request counts and metrics in print order.
struct Output {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Host seconds of one cold set-up.
fn time_setup<W: Workload>(w: &W) -> Result<f64, String> {
    let t0 = Instant::now();
    let ready = w.setup()?;
    let seconds = t0.elapsed().as_secs_f64();
    drop(ready);
    Ok(seconds)
}

fn measure<W: Workload>(w: &W, args: &Args) -> Result<Output, String> {
    // The first set-up warms the allocator and the code; it is not timed.
    let ready = w.setup()?;

    // Reference repetitions, untimed and with request telemetry, each
    // through the correctness gate: one per arrival seed of the run, whose
    // medians are the simulated metrics, and one of the timed seed if it is
    // not among them. The timed seed's reference warms up the timed
    // repetitions and is the output each of them must reproduce. A traced
    // run times the run's first seed.
    let seeds: Vec<u64> = (0..if args.trace { 1 } else { SIM_SEEDS })
        .map(|k| args.seed.wrapping_mul(SIM_SEEDS).wrapping_add(k))
        .collect();
    let timed_seed = if args.trace { seeds[0] } else { TIMED_SEED };
    let mut score = Score::default();
    let mut sim: Vec<[f64; 5]> = Vec::new();
    let mut samples = Vec::new();
    let mut reference = None;
    let mut reference_seeds = seeds.clone();
    if !seeds.contains(&timed_seed) {
        reference_seeds.push(timed_seed);
    }
    for (k, &seed) in reference_seeds.iter().enumerate() {
        let recorder = OutcomeRecorder::default();
        let (out, _) = w.replay(&ready, seed, Some(&recorder))?;
        let s = w.score(seed, &out, &recorder.take())?;
        if k < seeds.len() {
            sim.push(s.sim_values());
            samples.push(s.latencies_ms.len());
            score.absorb(&s);
        }
        if seed == timed_seed {
            reference = Some(out);
        }
    }
    let reference = reference.expect("the timed seed has a reference");
    let want = digest(&W::render(&reference));
    let untraced = |w: &W| -> Result<f64, String> {
        let (out, wall) = w.replay(&ready, timed_seed, None)?;
        if digest(&W::render(&out)) != want {
            return Err(format!(
                "a repetition on seed {timed_seed} differs from its reference output"
            ));
        }
        Ok(wall)
    };

    let mut walls = Vec::new();
    let mut metrics = Vec::new();
    let t_run = Instant::now();
    let enough = |reps: usize| reps >= MIN_REPS && t_run.elapsed().as_secs_f64() >= args.seconds;
    if args.trace {
        let mut traced_walls = Vec::new();
        let mut traced_layers: Vec<LayerValues> = Vec::new();
        while !enough(traced_walls.len()) {
            walls.push(untraced(w)?);
            let (wall, layers) = w.traced(&ready, timed_seed, &reference)?;
            traced_walls.push(wall);
            traced_layers.push(layers);
        }
        let mut layers = LayerValues::new();
        W::explored(&ready).record(&mut layers);
        for &(name, _) in &PER_LAYER {
            let values: Vec<f64> = traced_layers
                .iter()
                .filter_map(|l| l.get(name).copied())
                .collect();
            if !values.is_empty() {
                layers.insert(name, median(&values));
            }
        }
        layers.insert(
            "trace.overhead_pct",
            (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
        );
        for &(name, unit) in &PER_LAYER {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
        println!(
            "traced: {} traced and {} untraced repetitions, traced totals bit-equal to the untraced output",
            traced_walls.len(),
            walls.len()
        );
    } else {
        // Calibration loops bracket every repetition and every gap of
        // set-ups; each is scaled by the mean of the two around it.
        let mut raw_walls = Vec::new();
        let mut setups = Vec::new();
        let mut raw_setups = Vec::new();
        let mut cals = Vec::new();
        let mut calibration = probe::Calibration::new();
        let mut before = calibration.seconds();
        let scale =
            |raw: f64, a: f64, b: f64| at_reference_speed(raw, 0.5 * (a + b), CALIBRATION_REF_S);
        while !enough(walls.len()) {
            let wall = untraced(w)?;
            let after = calibration.seconds();
            walls.push(scale(wall, before, after));
            raw_walls.push(wall);
            let gap: Vec<f64> = (0..SETUPS_PER_GAP)
                .map(|_| time_setup(w))
                .collect::<Result<_, _>>()?;
            before = calibration.seconds();
            setups.extend(gap.iter().map(|&s| scale(s, after, before)));
            raw_setups.extend(gap);
            cals.extend([after, before]);
        }
        let wall_s = median(&walls);
        let sim_median = |i: usize| median(&sim.iter().map(|v| v[i]).collect::<Vec<_>>());
        let values = [
            median(&setups),
            wall_s,
            W::completions(&reference) as f64 / wall_s,
            probe::peak_rss_mb()?,
            sim_median(0),
            sim_median(1),
            sim_median(2),
            sim_median(3),
            sim_median(4),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((*name, value, *unit));
        }
        println!(
            "repetitions: {} on seed {timed_seed}, each bit-equal to the reference; \
             unscaled host s min {:.4} / median {:.4} / max {:.4}; {} set-ups, unscaled median {:.6} s; \
             calibration median {:.6} s (reference {CALIBRATION_REF_S} s)",
            walls.len(),
            raw_walls.iter().copied().fold(f64::INFINITY, f64::min),
            median(&raw_walls),
            raw_walls.iter().copied().fold(0.0, f64::max),
            setups.len(),
            median(&raw_setups),
            median(&cals),
        );
        println!("latency samples per seed {seeds:?}: {samples:?} completions");
        for (k, (name, unit)) in END_TO_END[4..].iter().enumerate() {
            let per_seed: Vec<String> = sim.iter().map(|v| format!("{:.4}", v[k])).collect();
            println!("{name} per seed: {} {unit}", per_seed.join(" "));
        }
    }
    println!(
        "requests: offered {} completed {} shed {} timed-out {} failed {} unfinished {}",
        score.offered, score.completed, score.shed, score.timed_out, score.failed, score.unfinished
    );
    Ok(Output {
        attempted: score.offered,
        failed: score.shed + score.timed_out + score.failed,
        metrics,
    })
}

fn run(args: &Args) -> Result<Output, String> {
    match args.workload.as_str() {
        "fleet-overload" => measure(&fleet::Fleet::overload(), args),
        "tenant-elastic" => measure(&fleet::Fleet::elastic(), args),
        "node-capacity" => measure(&node::NodeCapacity::new(), args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Metric values of a result line written by [`json_line`].
fn parse_metrics(line: &str) -> Option<Vec<(String, f64)>> {
    let marker = "\": {\"value\": ";
    let mut out = Vec::new();
    let mut rest = line.split_once("\"metrics\": {")?.1;
    while let Some((head, tail)) = rest.split_once(marker) {
        let name = head.rsplit_once('"')?.1.to_string();
        let (value, tail) = tail.split_once(',')?;
        out.push((name, value.trim().parse().ok()?));
        rest = tail;
    }
    Some(out)
}

/// `--repeat`: run the workload `runs` times in child processes on
/// consecutive seeds and summarize each metric across the runs.
fn repeat(args: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut order = Vec::new();
    for k in 0..runs {
        let seed = args.seed.wrapping_add(k as u64);
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot start a run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !out.status.success() || !last.contains("\"correct\": true") {
            return Err(format!(
                "run with seed {seed} failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let metrics = parse_metrics(last).ok_or("unreadable result line")?;
        println!("seed {seed}: {last}");
        for (name, value) in metrics {
            if !values.contains_key(&name) {
                order.push(name.clone());
            }
            values.entry(name).or_default().push(value);
        }
    }
    println!(
        "{:44} {:>14} {:>14} {:>14} {:>9}",
        "metric", "median", "q1", "q3", "iqr/med"
    );
    for name in order {
        let v = &values[&name];
        let (m, (q1, q3)) = (median(v), quartiles(v));
        let spread = if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
        println!("{name:44} {m:>14.6} {q1:>14.6} {q3:>14.6} {spread:>9.4}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        return match repeat(&args, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(out) => {
            for (name, value, unit) in &out.metrics {
                println!("{name} = {value} {unit}");
            }
            println!(
                "{}",
                json_line(true, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            println!("{}", json_line(false, 0, 0, &[]));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = json_line(
            true,
            10,
            1,
            &[("wall_s", 1.25, "s"), ("sim_p99_ms", 2e-3, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"sim_p99_ms\": {\"value\": 0.002, \"unit\": \"ms\"}}}"
        );
        assert_eq!(
            parse_metrics(&line),
            Some(vec![("wall_s".into(), 1.25), ("sim_p99_ms".into(), 0.002)])
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let ok = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = ok("--workload node-capacity --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.repeat),
            (7, 10.0, true, None)
        );
        assert!(ok("--workload x --seed 7 --seconds 10 --trace 2").is_err());
        assert!(ok("--workload x --seed -1 --seconds 10").is_err());
        assert!(ok("--workload x --seed 1 --seconds 0").is_err());
        assert!(ok("--workload x --seed 1").is_err());
        assert!(ok("--workload x --seed 1 --seconds 1 --bogus 1").is_err());
    }
}
