//! `benchdiff` — compare two `BENCH_*.json` files and fail on drift.
//!
//! ```sh
//! benchdiff BASELINE.json CURRENT.json [--threshold PCT] [--ignore PREFIX]...
//! benchdiff --list FILE.json
//! ```
//!
//! Both files are parsed with the crate's own JSON parser, flattened to
//! dotted numeric leaf paths (`components.warmup.seconds`,
//! `hot_pages.20.faults`, …), and every leaf present in *both* is compared.
//! A leaf whose relative change exceeds the threshold (default 10 %) in
//! either direction is a regression and the exit code is non-zero — the
//! deterministic simulator means any drift is a code change, not noise.
//! A leaf only in the current file is reported and allowed (reports may
//! grow); a leaf only in the baseline fails the run, as does a comparison of
//! no leaves at all, so a gate cannot pass on a bench that stopped writing
//! its keys. `--ignore PREFIX` skips leaves under a path prefix
//! (repeatable), for fields that are expected to move or go.
//!
//! `--list` prints one file's flattened leaves (`path = value`, sorted) —
//! the exact key space the comparison runs over — so regenerating or
//! reviewing a committed baseline shows precisely what is being gated.

use std::process::ExitCode;
use tlp_obs::json::Json;

/// Flattens a JSON tree into `(dotted.path, value)` numeric leaves.
fn flatten(prefix: &str, v: &Json, out: &mut Vec<(String, f64)>) {
    let join = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match v {
        Json::Num(n) => out.push((prefix.to_string(), *n)),
        Json::Bool(b) => out.push((prefix.to_string(), f64::from(*b))),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                // Arrays of labelled objects key on the label so reordering
                // (e.g. a new hot page) doesn't misalign every later entry.
                let key = item
                    .get("name")
                    .or_else(|| item.get("page"))
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .or_else(|| {
                        item.get("page")
                            .or_else(|| item.get("n"))
                            .and_then(Json::as_f64)
                            .map(|p| format!("{p}"))
                    })
                    .unwrap_or_else(|| i.to_string());
                flatten(&join(&key), item, out);
            }
        }
        Json::Obj(fields) => {
            for (k, item) in fields {
                flatten(&join(k), item, out);
            }
        }
        Json::Null | Json::Str(_) => {}
    }
}

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut leaves = Vec::new();
    flatten("", &json, &mut leaves);
    leaves.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(leaves)
}

fn main() -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold = 10.0f64;
    let mut ignore: Vec<String> = Vec::new();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => list = true,
            "--threshold" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 => threshold = t,
                    _ => {
                        eprintln!("bad --threshold '{v}' (want a percentage >= 0)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--ignore" => match args.next() {
                Some(p) => ignore.push(p),
                None => {
                    eprintln!("--ignore needs a path prefix");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: benchdiff BASELINE.json CURRENT.json [--threshold PCT] \
                     [--ignore PREFIX]...\n\
                     \x20      benchdiff --list FILE.json"
                );
                return ExitCode::FAILURE;
            }
            _ => paths.push(a),
        }
    }
    if list {
        let [path] = paths.as_slice() else {
            eprintln!("usage: benchdiff --list FILE.json");
            return ExitCode::FAILURE;
        };
        let leaves = match load(path) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("benchdiff: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (key, value) in &leaves {
            println!("{key} = {value}");
        }
        println!("# {} numeric leaves in {path}", leaves.len());
        return ExitCode::SUCCESS;
    }
    let [base_path, cur_path] = paths.as_slice() else {
        eprintln!("usage: benchdiff BASELINE.json CURRENT.json [--threshold PCT]");
        return ExitCode::FAILURE;
    };
    let (base, cur) = match (load(base_path), load(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchdiff: {e}");
            return ExitCode::FAILURE;
        }
    };

    let ignored = |path: &str| ignore.iter().any(|p| path.starts_with(p.as_str()));
    let cur_map: std::collections::BTreeMap<&str, f64> =
        cur.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base_map: std::collections::BTreeMap<&str, f64> =
        base.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    println!("benchdiff: {base_path} -> {cur_path} (threshold {threshold}%)");
    let (mut regressions, mut missing, mut compared) = (0usize, 0usize, 0usize);
    for (key, old) in &base_map {
        if ignored(key) {
            continue;
        }
        let Some(new) = cur_map.get(key) else {
            missing += 1;
            println!("  - {key} (only in baseline: {old})");
            continue;
        };
        compared += 1;
        // Relative change where the baseline is meaningful; absolute where
        // it is ~0 (a zero counter growing to 3 is a 3-unit change).
        let delta = if old.abs() > 1e-9 {
            100.0 * (new - old) / old.abs()
        } else if (new - old).abs() > 1e-9 {
            f64::INFINITY
        } else {
            0.0
        };
        if delta.abs() > threshold {
            regressions += 1;
            println!("  ! {key}: {old} -> {new} ({delta:+.1}%)");
        }
    }
    for (key, new) in &cur_map {
        if !base_map.contains_key(key) && !ignored(key) {
            println!("  + {key} (new: {new})");
        }
    }
    if regressions > 0 {
        eprintln!("benchdiff: {regressions}/{compared} leaves drifted beyond {threshold}%");
    }
    if missing > 0 {
        eprintln!("benchdiff: {missing} baseline leaves missing from {cur_path}");
    }
    if compared == 0 {
        eprintln!("benchdiff: no leaves compared");
    }
    if regressions > 0 || missing > 0 || compared == 0 {
        return ExitCode::FAILURE;
    }
    println!("benchdiff: {compared} leaves compared, all within {threshold}%");
    ExitCode::SUCCESS
}
