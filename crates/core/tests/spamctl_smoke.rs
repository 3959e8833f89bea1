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

/// The `series` of the metrics file `spamctl <args> --metrics-out` writes
/// to `name`.
fn metrics_of(args: &str, name: &str) -> Json {
    let json = tmp(name);
    assert_ok(
        "run",
        &spamctl(&format!("{args} --quiet --metrics-out"), &[&json]),
    );
    let snap = Json::parse(&std::fs::read_to_string(&json).unwrap()).expect("JSON parses");
    snap.get("series").expect("a registry snapshot").clone()
}

/// `field` of series `name`, as a number.
fn field(series: &Json, name: &str, field: &str) -> f64 {
    let s = series.get(name).unwrap_or_else(|| panic!("{name} missing"));
    s.get(field).and_then(Json::as_f64).expect("numeric field")
}

#[test]
fn the_metrics_file_of_a_run_holds_the_phase() {
    let series = metrics_of("run dc --workers 2", "smoke_metrics.json");
    let field = |name: &str, f: &str| field(&series, name, f);
    let tasks = field("spam_phase_tasks{phase=\"lcc\"}", "total");
    assert!(tasks > 0.0);
    let service_time = "spam_phase_service_time_seconds{phase=\"lcc\"}";
    assert_eq!(field(service_time, "count"), tasks, "one sample per task");
    assert_eq!(field("spam_live_tasks_completed", "total"), tasks);
    let latency = "spam_live_task_latency_seconds";
    assert_eq!(
        series.get(latency).and_then(|l| l.get("kind")?.as_str()),
        Some("histogram")
    );
    // The whole run's latencies, one per completed task — not the last few.
    assert_eq!(field(latency, "count"), tasks);
}

/// A dead letter burns SLO budget as a breach, but has no latency: the SLO
/// histogram holds the simulated latency of every task that succeeded and
/// nothing else.
#[test]
fn a_dead_letter_is_a_breach_with_no_latency_sample() {
    let run = "run dc --retries 0 --task-panic-rate 0.15 --fault-seed 7";
    let series = metrics_of(run, "smoke_dead_letters.json");
    let field = |name: &str, f: &str| field(&series, name, f);
    let dead = field("spam_live_dead_letters", "total");
    assert!(dead > 0.0, "the plan kills some tasks");
    let succeeded = field("spam_live_tasks_completed", "total");
    assert_eq!(field("spam_slo_latency_seconds", "count"), succeeded);
    // No completed task misses the 420 s target, so every breach is a
    // dead letter.
    let target = field("spam_slo_latency_target_seconds", "value");
    assert!(field("spam_slo_latency_seconds", "max") < target);
    assert_eq!(field("spam_slo_breaches", "total"), dead);
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
