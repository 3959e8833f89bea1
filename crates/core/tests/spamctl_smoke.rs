//! `spamctl` and `tracecheck` end to end, as the CI scripts and the
//! EXPERIMENTS walkthroughs drive them: every output file a run can write is
//! accepted by the checker that goes with it, and a flag that does not exist
//! is an error, not a silent default.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use tlp_obs::json::Json;

/// `spamctl` with the whitespace-separated `args`, then `more` verbatim
/// (paths, which may hold spaces).
fn spamctl(args: &str, more: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spamctl"));
    let out = cmd.args(args.split_whitespace()).args(more).output();
    out.expect("spamctl runs")
}

/// A path under cargo's per-target scratch directory, named for its test.
fn tmp(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    path.to_str().expect("utf-8 path").to_string()
}

fn assert_ok(what: &str, out: &Output) {
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "{what} failed:\n{stdout}\n{stderr}");
}

#[test]
fn a_real_exec_trace_passes_tracecheck() {
    let trace = tmp("smoke_trace.json");
    let run = "run dc --workers 2 --exec real --obs full --quiet --trace-out";
    assert_ok("run", &spamctl(run, &[&trace]));
    let check = Command::new(env!("CARGO_BIN_EXE_tracecheck"))
        .args([&trace, "--min-coverage", "0.99"])
        .output()
        .expect("tracecheck runs");
    assert_ok("tracecheck", &check);
}

#[test]
fn both_metrics_files_of_one_run_validate() {
    let (json, om) = (tmp("smoke_metrics.json"), tmp("smoke_metrics.om"));
    let files = ["--metrics-out", &json, "--metrics-snapshot", &om];
    assert_ok("run", &spamctl("run dc --workers 2 --quiet", &files));
    let snap = Json::parse(&std::fs::read_to_string(&json).unwrap()).expect("JSON parses");
    let series = snap.get("series").expect("a registry snapshot");
    let field = |name: &str, field: &str| {
        let s = series.get(name).unwrap_or_else(|| panic!("{name} missing"));
        s.get(field).and_then(Json::as_f64).expect("numeric field")
    };
    let tasks = field("spam_phase_tasks{phase=\"lcc\"}", "total");
    assert!(tasks > 0.0);
    let service_time = "spam_phase_service_time_seconds{phase=\"lcc\"}";
    assert_eq!(field(service_time, "count"), tasks, "one sample per task");
    assert_eq!(field("spam_live_tasks_completed", "total"), tasks);
    // The phase's series are in the exposition too, and it is legal.
    let text = std::fs::read_to_string(&om).unwrap();
    tlp_obs::validate_openmetrics(&text).expect("the exposition validates");
    assert!(text.contains("spam_phase_tasks_total{phase=\"lcc\"}"));
    assert!(text.contains("# TYPE spam_live_task_latency_seconds summary"));
    assert!(!text.lines().any(|l| l.contains(" # {")), "no exemplars");
}

#[test]
fn a_retained_trace_round_trips_through_trace_from() {
    let traces = tmp("smoke_traces.json");
    let run = "run dc --workers 2 --quiet --traces-out";
    assert_ok("run", &spamctl(run, &[&traces]));
    let doc = Json::parse(&std::fs::read_to_string(&traces).unwrap()).unwrap();
    let first = &doc.get("traces").and_then(Json::as_arr).expect("traces")[0];
    let id = first.get("trace_id").and_then(Json::as_str).expect("an id");
    assert_ok("trace", &spamctl("trace", &[id, "--from", &traces]));
}

#[test]
fn the_match_fraction_band_gate_passes() {
    let profile = "profile dc --level 2 --check-band 0.30:0.50";
    assert_ok("profile", &spamctl(profile, &[]));
}

#[test]
fn removed_and_unknown_flags_are_errors() {
    for flag in [
        "--deadline-ms",
        "--interval-ms",
        "--skew-ms",
        "--drift-ppm",
        "--trace-sample",
        "--live",
        "--serve",
        "--serve-linger-ms",
        "--no-such-flag",
    ] {
        let out = spamctl("run dc", &[flag, "1"]);
        assert!(!out.status.success(), "{flag} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let expected = format!("unknown argument '{flag}'");
        assert!(stderr.contains(&expected), "{flag}: {stderr}");
    }
    // A flag another subcommand reads, a second subcommand and a dataset
    // nobody reads are errors naming both — nothing runs or is written.
    let json = tmp("smoke_rejected.json");
    for (args, both) in [
        (
            "profile chaos dc --level 4 --json",
            ["'profile'", "'chaos'"],
        ),
        ("chaos dc --from 3 --json", ["--from", "'chaos'"]),
        ("dc --check-band 0.3:0.5 --json", ["--check-band", "'run'"]),
        ("trace ab12 dc --from", ["'trace'", "'dc'"]),
    ] {
        let out = spamctl(args, &[&json]);
        assert!(!out.status.success(), "{args} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(both.iter().all(|b| stderr.contains(b)), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args} ran something: {stderr}");
    }
    assert!(!std::path::Path::new(&json).exists());
    // A word that is no subcommand, dataset or flag, or a flag of none,
    // is rejected as such.
    for (args, word) in [
        ("slow", "slow"),
        ("top", "top"),
        ("trace ab12 --url x", "--url"),
    ] {
        let out = spamctl(args, &[]);
        assert!(!out.status.success(), "{args} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let expected = format!("unknown argument '{word}'");
        assert!(stderr.contains(&expected), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args} ran something: {stderr}");
    }
}

/// `chaos` runs every killed task with exactly one retry, so it reads no
/// `--retries` (a flag of `run` only); `--interval` is no flag at all.
#[test]
fn chaos_takes_no_retries_and_no_interval() {
    for (args, named) in [
        ("chaos dc --retries 1", "--retries is not a flag of 'chaos'"),
        ("chaos dc --interval 4", "unknown argument '--interval'"),
    ] {
        let out = spamctl(args, &[]);
        assert!(!out.status.success(), "{args} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args} ran something: {stderr}");
    }
}

/// A reader that stops reading (`spamctl … | head -1`) ends the run
/// quietly: no panic on the write that finds stdout closed.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_spamctl"))
        .args(["run", "dc"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spamctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
