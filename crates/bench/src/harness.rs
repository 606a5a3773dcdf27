//! The figure harness behind the `experiments` binary: one table of
//! figures, in-memory rendering, and the `verify` gate.
//!
//! Each [`Figure`] declares its name, its output files and how `verify`
//! checks each ([`Check`]), whether `all` runs it, and its environment
//! [`Knob`]s. Its `run` function renders printed text and output files
//! into a [`Fig`] and never touches the filesystem. The harness alone
//! writes `results/<file>` (`experiments <fig|all>`), or renders every
//! selected figure at one job and at `--jobs`, byte-compares the two
//! renders and the committed copies, and writes nothing
//! (`experiments verify <fig|all>`).

use crate::csvout::Csv;
use poly_dse::DesignSpaceCache;
use poly_par::par_map;
use std::fmt;
use std::time::Instant;

/// Command-line synopsis, printed with every argument error.
const USAGE: &str = "usage: experiments [verify] [<figure>|all] [--jobs N]";

/// How `verify` checks one output file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Byte-identical across job counts and to the committed
    /// `results/<file>` — the latter only while no [`Knob::resizes`]
    /// knob of the figure is set.
    Committed,
    /// Byte-identical across job counts; too large to commit, so never
    /// compared with a file.
    Uncommitted,
    /// Measured wall clock: written, never compared.
    Measured,
}

/// A positive numeric environment override of one figure.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable.
    pub var: &'static str,
    /// The value while the variable is unset.
    pub default: f64,
    /// Whether setting it changes the figure's outputs (a reduced smoke
    /// run), so that they no longer compare with the committed copies.
    pub resizes: bool,
    /// Whether the value counts something, so must be a whole number.
    pub integer: bool,
}

impl Knob {
    /// The knob's value given its variable's raw value, `default` when
    /// unset.
    ///
    /// # Errors
    /// Names the variable when `raw` is not a positive finite number, or
    /// not a positive integer for an `integer` knob.
    fn parse(&self, raw: Option<&str>) -> Result<f64, String> {
        let Some(raw) = raw else {
            return Ok(self.default);
        };
        match raw.trim().parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 && (!self.integer || x.fract() == 0.0) => Ok(x),
            _ => Err(format!(
                "{}=`{raw}` is not a positive {}",
                self.var,
                if self.integer { "integer" } else { "number" }
            )),
        }
    }
}

/// One row of the figure table.
#[derive(Debug)]
pub struct Figure {
    /// The command-line name (`fig7`, `cluster`, …).
    pub name: &'static str,
    /// Renders the figure.
    pub run: fn(&mut Fig),
    /// Whether `all` runs it.
    pub in_all: bool,
    /// Every file the figure renders, in the order it saves them.
    pub outputs: &'static [(&'static str, Check)],
    /// The environment variables the figure reads.
    pub knobs: &'static [Knob],
}

/// One figure's render: the job budget and knob values in, the printed
/// text (through [`fmt::Write`]) and the output files out.
#[derive(Debug)]
pub struct Fig {
    jobs: usize,
    knobs: Vec<(&'static str, f64)>,
    text: String,
    files: Vec<(&'static str, String)>,
}

impl Fig {
    /// The worker-thread budget of this render.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The value of a knob declared in the figure's table row.
    ///
    /// # Panics
    /// Panics if the figure does not declare `var`.
    #[must_use]
    pub fn knob(&self, var: &str) -> f64 {
        self.knobs
            .iter()
            .find(|(v, _)| *v == var)
            .unwrap_or_else(|| panic!("{var} is not a declared knob"))
            .1
    }

    /// Render `csv` as the output file `file`.
    pub fn save(&mut self, file: &'static str, csv: &Csv) {
        self.save_text(file, csv.render());
    }

    /// Record `text` as the output file `file`.
    pub fn save_text(&mut self, file: &'static str, text: String) {
        self.files.push((file, text));
    }

    /// Run `task` over `items` on the figure's workers. Each task writes
    /// a text block and rows under `header`; the blocks are appended to
    /// the figure's text and the rows to one table, both in input order,
    /// so the result is the same for every job count. Returns the table
    /// and each task's value.
    pub fn fan_out<T, R, F>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        header: &str,
        task: F,
    ) -> (Csv, Vec<R>)
    where
        T: Send,
        R: Send,
        F: Fn(T, &mut String, &mut Csv) -> R + Sync,
    {
        let parts = poly_par::par_map_owned(self.jobs, items.into_iter().collect(), |_, item| {
            let mut block = String::new();
            let mut part = Csv::new(header);
            let value = task(item, &mut block, &mut part);
            (block, part, value)
        });
        let mut csv = Csv::new(header);
        let mut values = Vec::with_capacity(parts.len());
        for (block, part, value) in parts {
            self.text.push_str(&block);
            csv.append(part);
            values.push(value);
        }
        (csv, values)
    }
}

impl fmt::Write for Fig {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}

/// A parsed command line.
#[derive(Debug)]
struct Command {
    /// `verify` instead of writing `results/`.
    verify: bool,
    /// `all` or the one figure's name.
    what: String,
    /// The selected figures, in table order.
    figures: Vec<&'static Figure>,
    /// The worker-thread budget (at least 1).
    jobs: usize,
}

/// Parse the arguments after the program name. `default_jobs` applies
/// without `--jobs`. An unknown figure, a second figure, or a `--jobs`
/// value that is not a positive integer is an error.
///
/// # Errors
/// Returns the message to print before exiting with status 2.
fn parse_args(
    args: &[String],
    figures: &'static [Figure],
    default_jobs: usize,
) -> Result<Command, String> {
    let parse_jobs = |v: Option<&str>| match v.map(str::parse::<usize>) {
        Some(Ok(n)) if n >= 1 => Ok(n),
        _ => Err(format!(
            "--jobs needs a positive integer, got `{}`",
            v.unwrap_or("")
        )),
    };
    let mut jobs = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            jobs = Some(parse_jobs(it.next().map(String::as_str))?);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            jobs = Some(parse_jobs(Some(v))?);
        } else {
            positional.push(a.as_str());
        }
    }
    let verify = positional.first() == Some(&"verify");
    if verify {
        positional.remove(0);
    }
    let what = match positional[..] {
        [] => "all",
        [one] => one,
        [first, second, ..] => {
            return Err(format!(
                "one experiment per run, got `{first}` and `{second}`"
            ))
        }
    };
    let selected: Vec<&'static Figure> = if what == "all" {
        figures.iter().filter(|f| f.in_all).collect()
    } else {
        let Some(f) = figures.iter().find(|f| f.name == what) else {
            let names: Vec<&str> = figures.iter().map(|f| f.name).collect();
            return Err(format!(
                "unknown experiment `{what}`; expected one of {} all",
                names.join(" ")
            ));
        };
        vec![f]
    };
    Ok(Command {
        verify,
        what: what.to_string(),
        figures: selected,
        jobs: jobs.unwrap_or(default_jobs).max(1),
    })
}

/// The first line (1-based) at which `a` and `b` differ, with that line
/// of each (`None` past the end); `None` when the texts are equal.
#[must_use]
fn first_diff<'a>(a: &'a str, b: &'a str) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    if a == b {
        return None;
    }
    let (mut la, mut lb) = (a.split_inclusive('\n'), b.split_inclusive('\n'));
    (1..).find_map(|n| {
        let (x, y) = (la.next(), lb.next());
        (x != y).then_some((n, x, y))
    })
}

/// One figure ready to render: its row and its knob values.
struct Plan {
    figure: &'static Figure,
    knobs: Vec<(&'static str, f64)>,
    /// Whether a knob that resizes the figure is set.
    resized: bool,
}

impl Plan {
    fn new(figure: &'static Figure) -> Result<Self, String> {
        let mut knobs = Vec::with_capacity(figure.knobs.len());
        let mut resized = false;
        for k in figure.knobs {
            let raw = std::env::var_os(k.var).map(|v| v.to_string_lossy().into_owned());
            knobs.push((k.var, k.parse(raw.as_deref())?));
            resized |= k.resizes && raw.is_some();
        }
        Ok(Self {
            figure,
            knobs,
            resized,
        })
    }

    /// Render at `jobs` workers: the printed text, the files in declared
    /// order, and the wall-clock seconds.
    fn render(&self, jobs: usize) -> (String, Vec<(&'static str, String)>, f64) {
        let t = Instant::now();
        let mut fig = Fig {
            jobs,
            knobs: self.knobs.clone(),
            text: String::new(),
            files: Vec::new(),
        };
        (self.figure.run)(&mut fig);
        let saved: Vec<&str> = fig.files.iter().map(|(f, _)| *f).collect();
        let declared: Vec<&str> = self.figure.outputs.iter().map(|(f, _)| *f).collect();
        assert_eq!(
            saved, declared,
            "{}: saved files differ from the table's outputs",
            self.figure.name
        );
        (fig.text, fig.files, t.elapsed().as_secs_f64())
    }
}

/// Run the `experiments` command line (`args` without the program name)
/// over `figures`; returns the process exit status.
#[must_use]
pub fn main(figures: &'static [Figure], args: &[String]) -> i32 {
    let parsed = parse_args(args, figures, poly_par::jobs()).and_then(|cmd| {
        let plans = cmd
            .figures
            .iter()
            .map(|f| Plan::new(f))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((cmd, plans))
    });
    match parsed {
        Ok((cmd, plans)) if cmd.verify => verify(&cmd, &plans),
        Ok((cmd, plans)) => run(&cmd, &plans),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            2
        }
    }
}

/// Render every figure (one figure per worker, each at the full budget),
/// print the texts in table order, and write every output to `results/`.
fn run(cmd: &Command, plans: &[Plan]) -> i32 {
    let t0 = Instant::now();
    let renders = par_map(cmd.jobs, plans, |_, p| p.render(cmd.jobs));
    let wall = t0.elapsed().as_secs_f64();
    std::fs::create_dir_all("results").expect("create results directory");
    for (text, files, _) in &renders {
        print!("{text}");
        for (file, body) in files {
            let path = format!("results/{file}");
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("  -> wrote {path}");
        }
    }
    println!("== timing summary (jobs={}) ==", cmd.jobs);
    let mut busy = 0.0;
    for (p, (_, _, secs)) in plans.iter().zip(&renders) {
        println!("  {:9} {secs:7.1}s", p.figure.name);
        busy += secs;
    }
    println!(
        "  figure time {busy:.1}s over {wall:.1}s wall-clock -> speedup {:.1}x",
        busy / wall.max(1e-9)
    );
    let cache = DesignSpaceCache::global();
    let (hits, misses) = cache.stats();
    println!(
        "  design-space cache: {misses} explorations, {hits} hits, {} entries",
        cache.len()
    );
    println!("[{}] done in {wall:.1}s", cmd.what);
    0
}

/// Render every figure at one job and at `cmd.jobs`, byte-compare the
/// two renders of each output and each committed output with
/// `results/<file>`, print one verdict per output, and write nothing.
/// Returns 1 on any mismatch.
fn verify(cmd: &Command, plans: &[Plan]) -> i32 {
    let t0 = Instant::now();
    let serial = par_map(cmd.jobs, plans, |_, p| p.render(1).1);
    let parallel = par_map(cmd.jobs, plans, |_, p| p.render(cmd.jobs).1);
    let same = format!("jobs 1 = jobs {}", cmd.jobs);
    let (mut outputs, mut failures) = (0, 0);
    for ((p, one), many) in plans.iter().zip(&serial).zip(&parallel) {
        for (i, &(file, check)) in p.figure.outputs.iter().enumerate() {
            let committed = check == Check::Committed && !p.resized;
            let found = mismatches(file, check, committed, &one[i].1, &many[i].1, cmd.jobs);
            let verdict = match check {
                Check::Measured => "measured wall clock, not compared".to_string(),
                _ if committed => format!("{same} = committed"),
                Check::Committed => format!("{same}; resized, so not compared with results/"),
                Check::Uncommitted => same.clone(),
            };
            outputs += 1;
            if found.is_empty() {
                println!("  ok    results/{file} ({verdict})");
            }
            for problem in &found {
                println!("  FAIL  results/{file}: {problem}");
            }
            failures += usize::from(!found.is_empty());
        }
    }
    println!(
        "[verify {}] {} figures, {outputs} outputs, {failures} mismatched, in {:.1}s",
        cmd.what,
        plans.len(),
        t0.elapsed().as_secs_f64()
    );
    i32::from(failures > 0)
}

/// The mismatches of one output: between its renders at one job (`one`)
/// and at `jobs` (`many`) unless it is measured, and between `one` and
/// the committed copy when `committed`.
fn mismatches(
    file: &str,
    check: Check,
    committed: bool,
    one: &str,
    many: &str,
    jobs: usize,
) -> Vec<String> {
    let mut found = Vec::new();
    if check != Check::Measured {
        let jobs = format!("jobs {jobs}");
        found.extend(first_diff(one, many).map(|d| describe(d, "jobs 1", &jobs)));
    }
    if committed {
        match std::fs::read_to_string(format!("results/{file}")) {
            Ok(c) => {
                found.extend(first_diff(&c, one).map(|d| describe(d, "committed", "rendered")))
            }
            Err(e) => found.push(format!("no committed copy ({e})")),
        }
    }
    found
}

/// One mismatch as text: the line number and both sides' lines.
fn describe((line, a, b): (usize, Option<&str>, Option<&str>), la: &str, lb: &str) -> String {
    fn show(l: Option<&str>) -> &str {
        l.map_or("<end of file>", |l| l.trim_end_matches('\n'))
    }
    format!(
        "{la} and {lb} differ at line {line}\n        {la:>9}: {}\n        {lb:>9}: {}",
        show(a),
        show(b)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop(_: &mut Fig) {}

    static TABLE: &[Figure] = &[
        Figure {
            name: "table3",
            run: nop,
            in_all: true,
            outputs: &[],
            knobs: &[],
        },
        Figure {
            name: "table45",
            run: nop,
            in_all: true,
            outputs: &[],
            knobs: &[],
        },
        Figure {
            name: "scale",
            run: nop,
            in_all: false,
            outputs: &[],
            knobs: &[],
        },
    ];

    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args, TABLE, 3)
    }

    fn names(cmd: &Command) -> Vec<&str> {
        cmd.figures.iter().map(|f| f.name).collect()
    }

    #[test]
    fn all_is_the_default_and_skips_figures_outside_it() {
        for line in ["", "all", "--jobs 2", "all --jobs=2"] {
            let cmd = parse(line).unwrap();
            assert_eq!(names(&cmd), ["table3", "table45"], "{line:?}");
            assert!(!cmd.verify);
            assert_eq!(cmd.what, "all");
        }
        assert_eq!(parse("").unwrap().jobs, 3, "default job count");
        assert_eq!(parse("--jobs 2").unwrap().jobs, 2);
    }

    #[test]
    fn verify_takes_a_figure_or_all_and_the_job_count() {
        let cmd = parse("verify scale --jobs 4").unwrap();
        assert!(cmd.verify);
        assert_eq!(names(&cmd), ["scale"]);
        assert_eq!(cmd.jobs, 4);
        assert_eq!(names(&parse("verify").unwrap()), ["table3", "table45"]);
        assert_eq!(
            names(&parse("--jobs=1 verify all").unwrap()),
            ["table3", "table45"]
        );
    }

    #[test]
    fn a_second_figure_is_rejected_not_ignored() {
        let err = parse("table45 table3").unwrap_err();
        assert!(err.contains("`table45` and `table3`"), "{err}");
        assert!(parse("verify table3 all").is_err());
    }

    #[test]
    fn jobs_must_be_a_positive_integer() {
        for line in [
            "--jobs 0",
            "--jobs=0",
            "--jobs",
            "--jobs x",
            "--jobs=-2",
            "table3 --jobs 1.5",
        ] {
            let err = parse(line).unwrap_err();
            assert!(
                err.contains("--jobs needs a positive integer"),
                "{line:?}: {err}"
            );
        }
    }

    #[test]
    fn unknown_figures_are_named() {
        let err = parse("fig99").unwrap_err();
        assert!(err.contains("`fig99`") && err.contains("table45"), "{err}");
        assert!(parse("quick").is_err(), "quick is gone: verify replaces it");
    }

    #[test]
    fn knob_values_must_be_positive_numbers() {
        let knob = |integer| Knob {
            var: "POLY_SCALE_NODES",
            default: 7.0,
            resizes: true,
            integer,
        };
        let (real, count) = (knob(false), knob(true));
        assert_eq!(real.parse(None), Ok(7.0));
        assert_eq!(real.parse(Some(" 0.5 ")), Ok(0.5));
        assert_eq!(count.parse(Some("8")), Ok(8.0));
        for bad in ["", "0", "-1", "abc", "8 nodes", "inf", "NaN"] {
            for k in [real, count] {
                let err = k.parse(Some(bad)).unwrap_err();
                assert!(err.contains("POLY_SCALE_NODES"), "{bad:?}: {err}");
            }
        }
        for fractional in ["0.5", "8.7"] {
            let err = count.parse(Some(fractional)).unwrap_err();
            assert!(err.contains("positive integer"), "{fractional}: {err}");
        }
    }

    #[test]
    fn first_diff_names_the_first_differing_line() {
        assert_eq!(first_diff("a\nb\n", "a\nb\n"), None);
        assert_eq!(
            first_diff("a\nb\nc\n", "a\nx\nc\n"),
            Some((2, Some("b\n"), Some("x\n")))
        );
        assert_eq!(first_diff("a\n", "a\nb\n"), Some((2, None, Some("b\n"))));
        assert_eq!(first_diff("a\n", "a"), Some((1, Some("a\n"), Some("a"))));
        assert_eq!(first_diff("", "a\n"), Some((1, None, Some("a\n"))));
    }

    #[test]
    fn fan_out_merges_blocks_and_rows_in_input_order() {
        use std::fmt::Write as _;
        for jobs in [1, 4] {
            let mut fig = Fig {
                jobs,
                knobs: Vec::new(),
                text: String::new(),
                files: Vec::new(),
            };
            let (csv, values) = fig.fan_out(1..=5_usize, "i", |i, block, part| {
                writeln!(block, "task {i}").unwrap();
                part.row().n(i);
                i * 10
            });
            assert_eq!(values, [10, 20, 30, 40, 50]);
            assert_eq!(csv.render(), "i\n1\n2\n3\n4\n5\n");
            assert_eq!(fig.text, "task 1\ntask 2\ntask 3\ntask 4\ntask 5\n");
        }
    }
}
