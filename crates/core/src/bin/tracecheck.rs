//! `tracecheck` — validate flight-recorder exports.
//!
//! ```sh
//! tracecheck trace.json [--min-coverage 0.99]
//! ```
//!
//! Checks a Chrome `trace_event` file produced by `spamctl --trace-out`:
//! the JSON must parse, every event must be well-formed, spans must be
//! well-nested per `(pid, tid)` — each `E` closes the innermost open `B`
//! by name and never ends before it begins, `X` durations are
//! non-negative — timestamps must be non-decreasing per `(pid, tid)`, and
//! the union of spans must cover at least `--min-coverage` of each
//! declared simulated makespan (default 0.99). Exits non-zero on any
//! violation, so CI can gate on it.

use std::process::ExitCode;
use tlp_obs::validate_chrome_trace;

struct Opts {
    trace: String,
    min_coverage: f64,
}

fn parse_args() -> Result<Opts, String> {
    let mut trace = None;
    let mut min_coverage = 0.99;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--min-coverage" => {
                min_coverage = args
                    .next()
                    .ok_or("--min-coverage needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --min-coverage: {e}"))?;
                if !(0.0..=1.0).contains(&min_coverage) {
                    return Err("--min-coverage must be in [0, 1]".into());
                }
            }
            "--help" | "-h" => {
                return Err("usage: tracecheck <trace.json> [--min-coverage C]".into())
            }
            other if other.starts_with('-') => return Err(format!("unknown argument '{other}'")),
            _ => {
                if trace.replace(a).is_some() {
                    return Err("only one trace file expected".into());
                }
            }
        }
    }
    Ok(Opts {
        trace: trace.ok_or("usage: tracecheck <trace.json> [--min-coverage C]")?,
        min_coverage,
    })
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(m) => {
            eprintln!("{m}");
            return ExitCode::FAILURE;
        }
    };

    let text = match std::fs::read_to_string(&o.trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {}: {e}", o.trace);
            return ExitCode::FAILURE;
        }
    };
    let summary = match validate_chrome_trace(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracecheck: {}: INVALID: {e}", o.trace);
            return ExitCode::FAILURE;
        }
    };
    println!("tracecheck: {}: {summary}", o.trace);
    match summary.coverage {
        None => {
            eprintln!(
                "tracecheck: {}: no simulated-makespan metadata; cannot check coverage",
                o.trace
            );
            return ExitCode::FAILURE;
        }
        Some(c) if c < o.min_coverage => {
            eprintln!(
                "tracecheck: {}: makespan coverage {:.2}% below required {:.2}%",
                o.trace,
                c * 100.0,
                o.min_coverage * 100.0
            );
            return ExitCode::FAILURE;
        }
        Some(_) => {}
    }

    println!("tracecheck: OK");
    ExitCode::SUCCESS
}
