//! `expocheck` — validate an OpenMetrics text exposition.
//!
//! ```sh
//! expocheck metrics.om [--require FAMILY]...
//! ```
//!
//! Checks a file produced by `spamctl run --metrics-snapshot`: metadata syntax (`# TYPE` / `# UNIT` /
//! `# HELP`), metric-name charset, family contiguity, `counter` / `gauge` /
//! `summary` families with the sample suffixes of their type, non-negative
//! counters, summary quantiles in `[0, 1]`, no duplicate samples, no
//! exemplars, and the `# EOF` terminator. `--require` asserts a family is
//! present (CI uses it to pin the `spam_live_*`/`spam_slo_*` contract).
//! Exits non-zero on any violation.

use std::process::ExitCode;
use tlp_obs::validate_openmetrics;

fn main() -> ExitCode {
    let mut file = None;
    let mut required: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--require" => match args.next() {
                Some(f) => required.push(f),
                None => {
                    eprintln!("--require needs a family name");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: expocheck <metrics.om> [--require FAMILY]...");
                return ExitCode::FAILURE;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
            _ => {
                if file.replace(a).is_some() {
                    eprintln!("only one exposition file expected");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: expocheck <metrics.om> [--require FAMILY]...");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("expocheck: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = match validate_openmetrics(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("expocheck: {file}: INVALID: {e}");
            return ExitCode::FAILURE;
        }
    };
    for fam in &required {
        if !text.lines().any(|l| {
            l.strip_prefix("# TYPE ")
                .is_some_and(|rest| rest.split(' ').next() == Some(fam.as_str()))
        }) {
            eprintln!("expocheck: {file}: required family {fam:?} is missing");
            return ExitCode::FAILURE;
        }
    }
    println!("expocheck: {file}: {summary}");
    println!("expocheck: OK");
    ExitCode::SUCCESS
}
