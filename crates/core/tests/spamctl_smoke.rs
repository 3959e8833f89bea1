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

/// A chaotic run's trace file, followed by a prefix of the id the run
/// printed: `spamctl trace` lists exactly the attempts the run's task
/// report counts, each failed one with its panic text.
#[test]
fn a_traced_scene_lists_the_task_reports_attempts() {
    let trace = tmp("smoke_chaos_trace.json");
    let run = "run dc --workers 2 --retries 1 --task-panic-rate 0.08 --fault-seed 42 --trace-out";
    let out = spamctl(run, &[&trace]);
    assert_ok("run", &out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let id = (stdout.lines())
        .filter_map(|l| l.strip_prefix("trace  : "))
        .find(|id| id.len() == 16)
        .expect("the run prints its trace id");

    // The report: `task report: OK/N ok, …`, then one line per task that
    // was not clean, `task i [label]: ok after k retr…` or `: panicked (e)`.
    let header = (stdout.lines())
        .find_map(|l| l.strip_prefix("task report: "))
        .expect("a task report");
    let n: usize = header.split(['/', ' ']).nth(1).unwrap().parse().unwrap();
    let mut attempts = vec![(1, None); n];
    for line in stdout.lines().filter_map(|l| l.strip_prefix("  task ")) {
        let (task, status) = line.split_once(" [").unwrap();
        let status = status.split_once("]: ").unwrap().1;
        let task: usize = task.parse().unwrap();
        attempts[task] = match status.strip_prefix("ok after ") {
            Some(k) => (
                1 + k.split(' ').next().unwrap().parse::<u32>().unwrap(),
                None,
            ),
            // `--retries 1`: a dead letter ran two attempts.
            None => {
                let error = status.strip_prefix("panicked (").unwrap().strip_suffix(')');
                (2, Some(error.unwrap().to_string()))
            }
        };
    }
    let mut want = Vec::new();
    for (task, (k, dead)) in attempts.iter().enumerate() {
        for a in 0..*k {
            let failed = a + 1 < *k || dead.is_some();
            let error = failed.then(|| format!("injected fault: task {task} attempt {a}"));
            want.push((task, a, error));
        }
        if let Some(last) = dead {
            assert_eq!(want.last().unwrap().2.as_ref(), Some(last));
        }
    }
    assert!(
        want.iter().any(|w| w.2.is_some()),
        "the plan fails some attempts"
    );

    let listed = spamctl("trace", &[&id[..4], "--from", &trace]);
    assert_ok("trace", &listed);
    let listed = String::from_utf8_lossy(&listed.stdout);
    let mut got: Vec<(usize, u32, Option<String>)> = (listed.lines())
        .filter_map(|l| l.split_once("task.exec t"))
        .map(|(_, rest)| {
            let (task, rest) = rest.split_once(" a").unwrap();
            let (attempt, rest) = rest.split_once(' ').unwrap();
            let error = rest.split_once("ERROR: ").map(|(_, e)| e.to_string());
            (task.parse().unwrap(), attempt.parse().unwrap(), error)
        })
        .collect();
    got.sort();
    assert_eq!(got, want, "{listed}");
    let retries = want.len() - n;
    let head = listed.lines().next().unwrap();
    assert!(
        head.starts_with(&format!("trace {id}: {} attempt(s)", want.len())),
        "{head}"
    );
    assert!(head.contains(&format!(" {retries} retries,")), "{head}");
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
        "--traces-out",
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
    // `tracecheck` reads Chrome traces only.
    let spans = Command::new(env!("CARGO_BIN_EXE_tracecheck"))
        .args(["--spans", &json])
        .output()
        .expect("tracecheck runs");
    assert!(!spans.status.success(), "--spans must be rejected");
    let stderr = String::from_utf8_lossy(&spans.stderr);
    assert!(stderr.contains("unknown argument '--spans'"), "{stderr}");
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
