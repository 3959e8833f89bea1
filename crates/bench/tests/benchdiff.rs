//! `benchdiff` as the CI gates drive it: a file passes against itself and
//! against a report that grew, and fails against one that lost a baseline
//! leaf (unless that leaf is `--ignore`d) or holds no leaves at all.

use std::path::PathBuf;
use std::process::Command;

/// `text` written under cargo's per-target scratch directory as `name`.
fn scratch(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scratch file written");
    path.to_str().expect("utf-8 path").to_string()
}

/// `benchdiff BASELINE CURRENT` plus `args`, where CURRENT is `current`
/// written to scratch as `name`; whether it passed, with its output for the
/// failure message.
fn benchdiff(baseline: &str, name: &str, current: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .args([baseline, &scratch(name, current)])
        .args(args)
        .output()
        .expect("benchdiff runs");
    let text = [out.stdout, out.stderr].concat();
    (
        out.status.success(),
        String::from_utf8_lossy(&text).into_owned(),
    )
}

/// A committed baseline.
const RETE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/BENCH_rete.json");

const BASE: &str = r#"{"work": {"firings": 100, "match_units": 2500}, "wall_ms": 3.5}"#;

#[test]
fn a_baseline_passes_against_itself() {
    let text = std::fs::read_to_string(RETE).expect("baseline read");
    let (ok, out) = benchdiff(RETE, "benchdiff_self.json", &text, &["--threshold", "0"]);
    assert!(ok, "{out}");
}

#[test]
fn a_report_may_grow() {
    let base = scratch("benchdiff_base_grow.json", BASE);
    let grown =
        r#"{"work": {"firings": 100, "match_units": 2500, "rhs_actions": 7}, "wall_ms": 3.5}"#;
    let (ok, out) = benchdiff(&base, "benchdiff_grown.json", grown, &[]);
    assert!(ok, "{out}");
    assert!(out.contains("+ work.rhs_actions"), "{out}");
}

#[test]
fn a_dropped_leaf_fails_unless_ignored() {
    let base = scratch("benchdiff_base_drop.json", BASE);
    let dropped = r#"{"work": {"firings": 100}, "wall_ms": 3.5}"#;
    let (ok, out) = benchdiff(&base, "benchdiff_dropped.json", dropped, &[]);
    assert!(!ok, "{out}");
    assert!(out.contains("- work.match_units"), "{out}");
    let ignore = ["--ignore", "work.match_units"];
    let (ok, out) = benchdiff(&base, "benchdiff_dropped.json", dropped, &ignore);
    assert!(ok, "{out}");
}

/// Against a baseline it has lost every leaf of; against `{}` it compares
/// nothing, which passes no gate either.
#[test]
fn an_empty_report_fails() {
    let (ok, out) = benchdiff(RETE, "benchdiff_empty.json", "{}", &[]);
    assert!(!ok, "{out}");
    let empty = scratch("benchdiff_empty_base.json", "{}");
    let (ok, out) = benchdiff(&empty, "benchdiff_empty.json", "{}", &[]);
    assert!(!ok, "{out}");
    assert!(out.contains("no leaves compared"), "{out}");
}
