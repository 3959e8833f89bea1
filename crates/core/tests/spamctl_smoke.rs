//! `spamctl` and `tracecheck` end to end, as the CI scripts and the
//! EXPERIMENTS walkthroughs drive them: every output file a run can write is
//! accepted by the checker that goes with it, and a flag that does not exist
//! is an error, not a silent default.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;
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
        ("chaos dc --iters 3 --json", ["--iters", "'chaos'"]),
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
    // A word that is no subcommand, dataset or flag is rejected as such.
    let out = spamctl("slow", &[]);
    assert!(!out.status.success(), "slow must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument 'slow'"), "{stderr}");
    assert!(out.stdout.is_empty(), "slow ran something: {stderr}");
}

/// `--metrics-snapshot F` is what `/metrics` serves: for one finished
/// traced run, the written file and a scrape of the lingering listener are
/// the same exposition — types, samples and label sets, the latency
/// histogram as a summary, and no exemplars.
#[test]
fn the_metrics_snapshot_file_is_what_the_listener_serves() {
    let om = tmp("smoke_served.om");
    let run = "run dc --workers 2 --quiet --serve 127.0.0.1:0 --serve-linger-ms 60000";
    let mut child = Command::new(env!("CARGO_BIN_EXE_spamctl"))
        .args(run.split_whitespace())
        .args(["--metrics-snapshot", &om])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spamctl runs");
    // The run is over, and the file written, once it says it lingers.
    let mut addr = None;
    for line in BufReader::new(child.stdout.take().unwrap()).lines() {
        let line = line.unwrap();
        if let Some(rest) = line.strip_prefix("serve  : live telemetry on http://") {
            addr = rest.split_whitespace().next().map(str::to_string);
        }
        if line.starts_with("serve  : lingering") {
            break;
        }
    }
    let addr = addr.expect("the bound address is printed");
    let scraped = tlp_obs::http_get(&format!("http://{addr}/metrics"), Duration::from_secs(10));
    child.kill().unwrap();
    child.wait().unwrap();
    let (status, scraped) = scraped.expect("the listener answers");
    assert_eq!(status, 200);
    let file = std::fs::read_to_string(&om).unwrap();
    assert!(file.contains("# TYPE spam_live_task_latency_seconds summary"));
    assert!(!file.lines().any(|l| l.contains(" # {")), "no exemplars");
    assert_eq!(file, scraped);
}
