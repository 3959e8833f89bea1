//! `tlp-e2e`: the repository's wall-clock ledger.
//!
//! ```sh
//! benchmarks/e2e/run.sh                       # every workload, each in its own process
//! benchmarks/e2e/run.sh --trace               # ... and its traced pass
//! benchmarks/e2e/run.sh --workload level3 --seed 1 --seconds 28 --trace 0
//! benchmarks/e2e/run.sh --quick               # 2 rounds per workload, a smoke test
//! benchmarks/e2e/run.sh --selfcheck           # two full sets, compared
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`.

mod calib;
mod host;
mod ledger;
mod nnls;
mod spans;
mod stats;
mod traced;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use tlp_obs::json::Json;

/// The contract this binary reports against; the bounds `--selfcheck`
/// applies and the default `--seconds` are read from it.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Every end-to-end metric and its unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("seq_round_ms_p50", "ms"),
    ("par_round_ms_p50", "ms"),
    ("tlp_speedup", "x"),
    ("peak_rss_mb", "MB"),
];

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one pass of one workload produced.
pub struct Outcome {
    /// Rounds run; a round whose outputs differ from the oracle, or that
    /// errors, is `failed`.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let v = Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.to_string(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

const USAGE: &str = "usage: tlp-e2e [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] \
                     [--quick] [--selfcheck]";

#[derive(Clone, Debug, PartialEq)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    /// `None`: `run_seconds` of `BENCHMARK.json`.
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if workload::find(name).is_none() {
                    let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name} (known: {})",
                        known.join(", ")
                    ));
                }
                o.workload = Some(name.clone());
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: u64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1 to 600".into());
                }
                o.seconds = Some(s);
            }
            // `--trace` alone turns the traced pass on; `--trace 0|1` is
            // the driver's spelling.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => o.quick = true,
            "--selfcheck" => o.selfcheck = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(o)
}

/// A field of `BENCHMARK.json`; the file is part of the build, so a
/// missing field is a broken build, not a user error.
fn contract(key: &str) -> Json {
    Json::parse(BENCHMARK_JSON)
        .expect("BENCHMARK.json parses")
        .get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .clone()
}

fn run_seconds() -> u64 {
    contract("run_seconds")
        .as_f64()
        .expect("run_seconds is a number") as u64
}

/// `(name, bound)` of every end-to-end metric.
fn bounds() -> Vec<(String, f64)> {
    contract("end_to_end")
        .as_arr()
        .expect("end_to_end is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).unwrap_or_else(|| panic!("metric without {k}"));
            (
                field("name").as_str().expect("name").to_string(),
                field("bound").as_f64().expect("bound"),
            )
        })
        .collect()
}

/// One pass of one workload in this process; prints the result line.
fn run_one(name: &str, o: &Opts) -> ExitCode {
    let w = workload::find(name).expect("checked by parse_args");
    let host = host::Host::read();
    println!(
        "workload = {name}  seed = {}  pass = {}",
        o.seed,
        if o.trace { "traced" } else { "untraced" }
    );
    let outcome = if o.trace {
        traced::run(w, o.seed, o.quick, &host)
    } else {
        ledger::run(
            w,
            o.seed,
            o.seconds.unwrap_or_else(run_seconds),
            o.quick,
            &host,
        )
    };
    match outcome {
        Ok(out) => {
            println!("{}", out.to_json().write());
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("{name}: {} of {} rounds failed", out.failed, out.attempted);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The metrics of one child pass, by name.
type Values = Vec<(String, f64)>;

/// Runs one pass of one workload in a process of its own, echoing its
/// output; returns the metrics of its result line.
fn run_child(name: &str, o: &Opts, trace: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &o.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = o.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{name}: child exited with {}", out.status));
    }
    let last = text.lines().last().ok_or(format!("{name}: no output"))?;
    let json = Json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err(format!("{name}: result line has no metrics"));
    };
    metrics
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Json::as_f64);
            value
                .map(|x| (k.clone(), x))
                .ok_or(format!("{name}: {k} has no value"))
        })
        .collect()
}

/// One full set: every workload, untraced (and traced when asked), each
/// in its own process. `Err` if any pass failed.
fn run_set(o: &Opts, trace: bool) -> Result<Vec<(&'static str, Values, Values)>, String> {
    let mut set = Vec::new();
    for w in &workload::WORKLOADS {
        println!("\n==== {} ====", w.name);
        let e2e = run_child(w.name, o, false)?;
        let layers = if trace {
            run_child(w.name, o, true)?
        } else {
            Vec::new()
        };
        set.push((w.name, e2e, layers));
    }
    Ok(set)
}

/// Two full sets back to back: every end-to-end metric of the second must
/// be within its own bound of the first, and every exact count equal.
fn selfcheck(o: &Opts) -> Result<bool, String> {
    let a = run_set(o, true)?;
    let b = run_set(o, true)?;
    let bounds = bounds();
    let mut ok = true;
    println!("\n==== selfcheck: two sets of the same code ====");
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for ((name, e1, l1), (_, e2, l2)) in a.iter().zip(&b) {
        for ((metric, v1), (_, v2)) in e1.iter().zip(e2) {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map(|(_, b)| *b)
                .ok_or(format!("{metric} has no bound in BENCHMARK.json"))?;
            let diff = (v2 - v1).abs() / v1.abs();
            let pass = diff <= bound;
            ok &= pass;
            println!(
                "{name:<12} {metric:<20} {v1:>14.4} {v2:>14.4} {:>7.2}% {:>6.0}%{}",
                100.0 * diff,
                100.0 * bound,
                if pass { "" } else { "  OUT OF BOUND" }
            );
        }
        for ((metric, v1), (_, v2)) in l1.iter().zip(l2) {
            if traced::EXACT.contains(&metric.as_str()) && v1 != v2 {
                ok = false;
                println!("{name:<12} {metric:<20} {v1:>14} {v2:>14}  EXACT COUNT DIFFERS");
            }
        }
    }
    println!("selfcheck: {}", if ok { "pass" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &o.workload {
        return run_one(name, &o);
    }
    let ok = if o.selfcheck {
        selfcheck(&o)
    } else {
        run_set(&o, o.trace).map(|_| true)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_human_spellings_of_trace_both_parse() {
        let o = parse_args(&args("--workload level3 --seed 7 --seconds 24 --trace 0")).unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("level3"), 7, Some(24), false)
        );
        assert!(
            parse_args(&args("--trace 1 --workload fine_l1"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&args("--trace")).unwrap().trace);
        let o = parse_args(&args("--trace --quick")).unwrap();
        assert!(o.trace && o.quick);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--bogus")).is_err());
    }

    /// `BENCHMARK.json` and the tables this binary reports from must name
    /// the same workloads and metrics with the same units.
    #[test]
    fn benchmark_json_agrees_with_the_binary() {
        let names = |key: &str| -> Vec<(String, String)> {
            contract(key)
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(traced::PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert!(traced::EXACT
            .iter()
            .all(|e| traced::PER_LAYER.iter().any(|(n, _)| n == e)));
        assert!(bounds().iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        assert!((1..=60).contains(&run_seconds()));
    }

    /// `--quick` as a smoke test: both passes of the cheapest workload
    /// report exactly the metrics of their table with no failed round,
    /// and a seeded presentation leaves the amount of work alone.
    #[test]
    fn quick_passes_report_every_metric() {
        let w = workload::find("fine_l1").unwrap();
        let host = host::Host::read();
        let names = |o: &Outcome| -> Vec<&str> { o.metrics.iter().map(|m| m.name).collect() };
        let table =
            |t: &[(&'static str, &str)]| -> Vec<&str> { t.iter().map(|(n, _)| *n).collect() };

        let e2e = ledger::run(w, 1, 1, true, &host).unwrap();
        assert_eq!((e2e.attempted, e2e.failed), (ledger::QUICK_ROUNDS, 0));
        assert_eq!(names(&e2e), table(END_TO_END));
        assert!(e2e.metrics.iter().all(|m| m.value > 0.0), "never 0");

        let layers = traced::run(w, 1, true, &host).unwrap();
        assert_eq!((layers.attempted, layers.failed), (ledger::QUICK_ROUNDS, 0));
        assert_eq!(names(&layers), table(traced::PER_LAYER));
        let value = |name: &str| {
            layers
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(value("spam.lcc.tasks"), 1_282.0);
        assert_eq!(value("ops5.firings"), 1_536.0);
        assert_eq!(value("obs.recorder.events"), 0.0);
        assert!(value("core.exec.chunks") > 0.0 && value("trace.spans") > 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.0021, "s")],
        };
        let json = Json::parse(&out.to_json().write()).unwrap();
        let keys: Vec<&str> = json.as_map().unwrap().into_keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let m = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.0021));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
