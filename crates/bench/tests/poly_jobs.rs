//! `POLY_JOBS` sets the `experiments` worker count when `--jobs` is not
//! given. A value that is not a positive integer is an argument error —
//! exit 2 naming the variable, before anything renders — like a bad
//! `--jobs` or `POLY_SCALE_*` value, not a silent fall-back to the
//! machine's parallelism.

use std::path::Path;
use std::process::{Command, Output};

/// `experiments verify table3` from the repository root (the committed
/// `results/` it compares against), with `POLY_JOBS` set to `value`.
/// `verify` writes nothing.
fn verify_table3(value: &str) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["verify", "table3"])
        .env("POLY_JOBS", value)
        .current_dir(root)
        .output()
        .expect("experiments starts")
}

#[test]
fn unparsable_or_zero_poly_jobs_exits_2_and_names_the_variable() {
    for bad in ["abc", "0"] {
        let out = verify_table3(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "POLY_JOBS={bad}: {stderr}");
        assert!(
            stderr.contains(&format!("POLY_JOBS=`{bad}` is not a positive integer")),
            "POLY_JOBS={bad}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing renders before the error");
    }
}

#[test]
fn a_positive_poly_jobs_sets_the_job_count() {
    let out = verify_table3("2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("jobs 1 = jobs 2"), "{stdout}");
}
