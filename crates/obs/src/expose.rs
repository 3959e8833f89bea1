//! OpenMetrics text exposition and the exposition validator behind the
//! `expocheck` binary.
//!
//! The wire format is the OpenMetrics / Prometheus text exposition: each
//! metric *family* gets `# TYPE` (and `# UNIT` / `# HELP` where known)
//! metadata followed by its samples, the whole document terminated by
//! `# EOF`. Everything is hand-rolled — the workspace builds offline with
//! zero new dependencies — and [`validate_openmetrics`] accepts exactly
//! what the renderer writes, the way `tracecheck` checks Chrome traces:
//! metadata syntax, name charset, family contiguity, `counter` / `gauge` /
//! `summary` types with their sample suffixes, quantile ranges, no
//! exemplars, and the `# EOF` terminator.
//!
//! Mapping from [`LiveSnapshot`] values:
//!
//! * counters → `counter` families (`name_total` samples, windowed rate is
//!   left to the reader — totals are the contract);
//! * gauges → `gauge` families;
//! * windowed histograms → `summary` families (q50/q90/q99 quantile
//!   samples plus `_count`/`_sum`), which keeps the exposition compact
//!   instead of shipping all 258 log-scale buckets.
//!
//! The exposition is a file a run writes when it ends (`spamctl run
//! --metrics-snapshot F`, [`openmetrics`] of the registry's last
//! snapshot); there is no listener. A run is shorter than any useful
//! polling interval, so its telemetry is read after it ends.

use crate::live::{LiveSnapshot, LiveValue};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Splits a [`crate::live::series_key`]-encoded key into `(family, labels)`
/// where `labels` keeps its braces-less `k="v",…` spelling.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (&key[..i], key[i + 1..].trim_end_matches('}')),
        None => (key, ""),
    }
}

/// Known unit suffixes: a family named `*_<unit>` gets a `# UNIT` line.
const UNITS: &[&str] = &["seconds", "bytes", "ratio"];

/// Help text for the well-known series families.
fn family_help(family: &str) -> Option<&'static str> {
    Some(match family {
        "spam_live_tasks_completed" => "Tasks completed by the supervisor.",
        "spam_live_task_retries" => "Task attempts retried after a fault.",
        "spam_live_dead_letters" => "Tasks abandoned after exhausting retries.",
        "spam_live_queue_depth" => "Tasks waiting in the supervisor queue.",
        "spam_live_match_units" => "Engine match work units executed.",
        "spam_live_firings" => "Production firings executed.",
        "spam_live_rhs_actions" => "RHS working-memory actions executed.",
        "spam_live_conflict_set_depth" => "Instantiations in the conflict set.",
        "spam_live_wm_size" => "Working-memory elements resident.",
        "spam_live_worker_busy_us" => "Wall microseconds each worker spent executing tasks.",
        "spam_live_worker_tasks" => "Tasks completed per worker.",
        "spam_live_task_latency_seconds" => "Per-task simulated service time.",
        "spam_slo_breaches" => "Tasks that missed the latency objective.",
        "spam_slo_burn_rate_fast" => "Error-budget burn rate over the fast window.",
        "spam_slo_burn_rate_slow" => "Error-budget burn rate over the slow window.",
        "spam_slo_error_budget_remaining_ratio" => "Fraction of the error budget left.",
        "spam_slo_health" => "Health: 0 healthy, 1 degraded.",
        "spam_slo_latency_seconds" => "Observed per-task latency distribution.",
        "spam_slo_latency_target_seconds" => "Configured per-task latency objective.",
        "spam_slo_objective_ratio" => "Configured success-fraction objective.",
        _ => return None,
    })
}

/// Formats a float the way the exposition expects (finite shortest form,
/// `NaN`/`+Inf`/`-Inf` spelled the OpenMetrics way).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Appends one sample line, merging `extra` labels into the key's own.
fn sample_line(out: &mut String, name: &str, labels: &str, extra: &[(&str, String)], v: f64) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        out.push_str(labels);
        for (i, (k, val)) in extra.iter().enumerate() {
            if !labels.is_empty() || i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(val);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&fmt_value(v));
    out.push('\n');
}

/// Renders a snapshot as OpenMetrics text (terminated by `# EOF`).
pub fn openmetrics(snap: &LiveSnapshot) -> String {
    // Group series by family so labeled variants stay contiguous.
    let mut families: BTreeMap<String, Vec<(String, &LiveValue)>> = BTreeMap::new();
    for (key, value) in &snap.series {
        let (family, labels) = split_key(key);
        // A counter named `x_total` exposes family `x` with sample `x_total`.
        let family = match value {
            LiveValue::Counter { .. } => family.strip_suffix("_total").unwrap_or(family),
            _ => family,
        };
        families
            .entry(family.to_string())
            .or_default()
            .push((labels.to_string(), value));
    }
    let mut out = String::new();
    for (family, entries) in &families {
        let ftype = match entries[0].1 {
            LiveValue::Counter { .. } => "counter",
            LiveValue::Gauge(_) => "gauge",
            LiveValue::Histogram(_) => "summary",
        };
        out.push_str(&format!("# TYPE {family} {ftype}\n"));
        if let Some(unit) = UNITS.iter().find(|u| family.ends_with(&format!("_{u}"))) {
            out.push_str(&format!("# UNIT {family} {unit}\n"));
        }
        if let Some(help) = family_help(family) {
            out.push_str(&format!("# HELP {family} {help}\n"));
        }
        for (labels, value) in entries {
            match value {
                LiveValue::Counter { total, .. } => {
                    sample_line(
                        &mut out,
                        &format!("{family}_total"),
                        labels,
                        &[],
                        *total as f64,
                    );
                }
                LiveValue::Gauge(g) => sample_line(&mut out, family, labels, &[], *g),
                LiveValue::Histogram(h) => {
                    for q in [0.5, 0.9, 0.99] {
                        let v = h.quantile(q).unwrap_or(f64::NAN);
                        sample_line(&mut out, family, labels, &[("quantile", format!("{q}"))], v);
                    }
                    sample_line(
                        &mut out,
                        &format!("{family}_count"),
                        labels,
                        &[],
                        h.count() as f64,
                    );
                    sample_line(&mut out, &format!("{family}_sum"), labels, &[], h.sum());
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

// ---------------------------------------------------------------------------
// Validation (the `expocheck` core)
// ---------------------------------------------------------------------------

/// What [`validate_openmetrics`] saw in a valid exposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpoSummary {
    /// Families declared with `# TYPE`.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

impl std::fmt::Display for ExpoSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} families, {} samples", self.families, self.samples)
    }
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// The family types [`openmetrics`] writes; any other is an error.
const TYPES: &[&str] = &["counter", "gauge", "summary"];

/// Sample-name suffixes of each type in [`TYPES`], as [`openmetrics`]
/// writes them.
fn allowed_suffixes(ftype: &str) -> &'static [&'static str] {
    match ftype {
        "counter" => &["_total"],
        "summary" => &["", "_count", "_sum"],
        _ => &[""], // gauge
    }
}

fn parse_value(tok: &str) -> Result<f64, String> {
    match tok {
        "NaN" => Ok(f64::NAN),
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        _ => tok
            .parse::<f64>()
            .map_err(|_| format!("unparseable value {tok:?}")),
    }
}

struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses a `{k="v",…}` label set starting at `bytes[*i]` (which must be
/// `{`), advancing `*i` past the closing brace.
fn parse_labelset(
    bytes: &[char],
    i: &mut usize,
    line: &str,
) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    *i += 1; // consume '{'
    loop {
        if *i < bytes.len() && bytes[*i] == '}' {
            *i += 1;
            break;
        }
        let start = *i;
        while *i < bytes.len() && (bytes[*i].is_ascii_alphanumeric() || bytes[*i] == '_') {
            *i += 1;
        }
        let lname: String = bytes[start..*i].iter().collect();
        if lname.is_empty() || !valid_name(&lname) {
            return Err(format!("invalid label name in line {line:?}"));
        }
        if *i >= bytes.len() || bytes[*i] != '=' {
            return Err(format!("expected '=' after label name in line {line:?}"));
        }
        *i += 1;
        if *i >= bytes.len() || bytes[*i] != '"' {
            return Err(format!("expected '\"' opening label value in {line:?}"));
        }
        *i += 1;
        let mut val = String::new();
        loop {
            if *i >= bytes.len() {
                return Err(format!("unterminated label value in line {line:?}"));
            }
            match bytes[*i] {
                '"' => {
                    *i += 1;
                    break;
                }
                '\\' => {
                    *i += 1;
                    match bytes.get(*i) {
                        Some('\\') => val.push('\\'),
                        Some('"') => val.push('"'),
                        Some('n') => val.push('\n'),
                        _ => return Err(format!("bad escape in label value in {line:?}")),
                    }
                    *i += 1;
                }
                c => {
                    val.push(c);
                    *i += 1;
                }
            }
        }
        labels.push((lname, val));
        match bytes.get(*i) {
            Some(',') => *i += 1,
            Some('}') => {}
            _ => return Err(format!("expected ',' or '}}' in label set in {line:?}")),
        }
    }
    Ok(labels)
}

/// Parses one sample line: `name[{labels}] value [timestamp]`. A `#` after
/// the value (an exemplar) is an error: the renderer writes none.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_' || bytes[i] == ':')
    {
        i += 1;
    }
    let name: String = bytes[..i].iter().collect();
    if !valid_name(&name) {
        return Err(format!("invalid metric name in line {line:?}"));
    }
    let mut labels = Vec::new();
    if i < bytes.len() && bytes[i] == '{' {
        labels = parse_labelset(&bytes, &mut i, line)?;
    }
    let rest: String = bytes[i..].iter().collect();
    if rest.contains('#') {
        return Err(format!(
            "'#' after the sample value (an exemplar?) in {line:?}"
        ));
    }
    let toks: Vec<&str> = rest.split_whitespace().collect();
    let Some(first) = toks.first() else {
        return Err(format!("sample in line {line:?} has no value"));
    };
    if toks.len() > 2 {
        return Err(format!("sample in line {line:?} has trailing tokens"));
    }
    let value = parse_value(first)?;
    if let Some(ts) = toks.get(1) {
        (ts.parse::<f64>()).map_err(|_| format!("unparseable timestamp in line {line:?}"))?;
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

#[derive(Default)]
struct FamilyState {
    ftype: String,
    has_samples: bool,
}

/// Validates an OpenMetrics text exposition. Returns family/sample counts,
/// or the first violation found.
pub fn validate_openmetrics(text: &str) -> Result<ExpoSummary, String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    let lines: Vec<&str> = text.trim_end_matches('\n').split('\n').collect();
    match lines.last() {
        Some(&"# EOF") => {}
        _ => return Err("exposition must end with '# EOF'".into()),
    }
    if lines[..lines.len() - 1].contains(&"# EOF") {
        return Err("'# EOF' must be the final line".into());
    }

    let mut families: BTreeMap<String, FamilyState> = BTreeMap::new();
    let mut finished: BTreeSet<String> = BTreeSet::new();
    let mut current: Option<String> = None;
    let mut seen_samples: BTreeSet<String> = BTreeSet::new();
    let mut n_samples = 0usize;

    let enter = |family: &str,
                 current: &mut Option<String>,
                 finished: &mut BTreeSet<String>|
     -> Result<(), String> {
        if current.as_deref() == Some(family) {
            return Ok(());
        }
        if let Some(prev) = current.take() {
            finished.insert(prev);
        }
        if finished.contains(family) {
            return Err(format!(
                "family {family:?} is interleaved with other families"
            ));
        }
        *current = Some(family.to_string());
        Ok(())
    };

    for (lineno, raw) in lines[..lines.len() - 1].iter().enumerate() {
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        if raw.trim().is_empty() {
            return Err(at("blank lines are not allowed".into()));
        }
        if let Some(meta) = raw.strip_prefix("# ") {
            let mut parts = meta.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let arg = parts.next().unwrap_or("");
            if !matches!(kind, "TYPE" | "UNIT" | "HELP") {
                return Err(at(format!("unknown metadata line {raw:?}")));
            }
            if !valid_name(name) {
                return Err(at(format!("invalid family name {name:?}")));
            }
            enter(name, &mut current, &mut finished).map_err(at)?;
            let fam = families.entry(name.to_string()).or_default();
            match kind {
                "TYPE" => {
                    if !fam.ftype.is_empty() {
                        return Err(at(format!("duplicate TYPE for family {name:?}")));
                    }
                    if fam.has_samples {
                        return Err(at(format!("TYPE for {name:?} after its samples")));
                    }
                    if !TYPES.contains(&arg) {
                        return Err(at(format!(
                            "metric type {arg:?} is not one the renderer writes ({})",
                            TYPES.join(", ")
                        )));
                    }
                    fam.ftype = arg.to_string();
                }
                "UNIT" if arg.is_empty() || !name.ends_with(&format!("_{arg}")) => {
                    return Err(at(format!(
                        "UNIT {arg:?} must be a suffix of family name {name:?}"
                    )));
                }
                _ => {}
            }
            continue;
        }
        if raw.starts_with('#') {
            return Err(at(format!("malformed comment line {raw:?}")));
        }

        let sample = parse_sample(raw).map_err(at)?;
        n_samples += 1;
        // Resolve the family: longest declared family such that the sample
        // name is family + allowed suffix for its type.
        let resolved = families
            .iter()
            .filter(|(f, st)| {
                sample.name.starts_with(f.as_str())
                    && allowed_suffixes(&st.ftype).contains(&&sample.name[f.len()..])
            })
            .map(|(f, _)| f.clone())
            .max_by_key(|f| f.len());
        let family = match resolved {
            Some(f) => f,
            None => {
                return Err(at(format!(
                    "sample {:?} has no matching # TYPE metadata",
                    sample.name
                )))
            }
        };
        enter(&family, &mut current, &mut finished).map_err(at)?;
        let suffix = sample.name[family.len()..].to_string();
        let labels_id: Vec<String> = sample
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        let sample_id = format!("{}|{}", sample.name, labels_id.join(","));
        if !seen_samples.insert(sample_id) {
            return Err(at(format!(
                "duplicate sample {:?} with identical labels",
                sample.name
            )));
        }
        let fam = families.get_mut(&family).unwrap();
        fam.has_samples = true;
        match fam.ftype.as_str() {
            "counter" if sample.value.is_nan() || sample.value < 0.0 => {
                return Err(at(format!(
                    "counter {:?} has negative or NaN value {}",
                    sample.name, sample.value
                )));
            }
            "summary" if suffix.is_empty() => {
                let q = sample
                    .labels
                    .iter()
                    .find(|(k, _)| k == "quantile")
                    .ok_or_else(|| {
                        at(format!(
                            "summary sample {:?} is missing a quantile label",
                            sample.name
                        ))
                    })?;
                let qv: f64 =
                    q.1.parse()
                        .map_err(|_| at(format!("unparseable quantile {:?}", q.1)))?;
                if !(0.0..=1.0).contains(&qv) {
                    return Err(at(format!("quantile {qv} outside [0, 1]")));
                }
            }
            _ => {}
        }
    }

    for (name, fam) in &families {
        if fam.ftype.is_empty() {
            return Err(format!("family {name:?} has metadata but no # TYPE"));
        }
    }

    Ok(ExpoSummary {
        families: families.len(),
        samples: n_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::Live;

    fn sample_snapshot() -> LiveSnapshot {
        let live = Live::new(4);
        let h = live.handle();
        h.inc("spam_live_tasks_completed", 12);
        h.inc(
            &crate::live::series_key("spam_live_worker_busy_us", &[("worker", "0")]),
            500,
        );
        h.inc(
            &crate::live::series_key("spam_live_worker_busy_us", &[("worker", "1")]),
            700,
        );
        h.gauge("spam_live_queue_depth", 3.0);
        h.observe("spam_live_task_latency_seconds", 0.25);
        h.observe("spam_live_task_latency_seconds", 4.0);
        live.snapshot()
    }

    #[test]
    fn rendered_exposition_validates() {
        let text = openmetrics(&sample_snapshot());
        let summary = validate_openmetrics(&text).expect(&text);
        assert_eq!(summary.families, 4);
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("# TYPE spam_live_tasks_completed counter"));
        assert!(text.contains("spam_live_tasks_completed_total 12"));
        assert!(text.contains("spam_live_worker_busy_us_total{worker=\"0\"} 500"));
        assert!(text.contains("# TYPE spam_live_task_latency_seconds summary"));
        assert!(text.contains("# UNIT spam_live_task_latency_seconds seconds"));
        assert!(text.contains("spam_live_task_latency_seconds_count 2"));
    }

    #[test]
    fn validator_requires_eof() {
        assert!(validate_openmetrics("# TYPE x counter\nx_total 1\n")
            .unwrap_err()
            .contains("# EOF"));
    }

    #[test]
    fn validator_rejects_interleaved_families() {
        let text = "# TYPE a gauge\na 1\n# TYPE b gauge\nb 2\na 3\n# EOF\n";
        assert!(validate_openmetrics(text)
            .unwrap_err()
            .contains("interleaved"));
    }

    #[test]
    fn validator_rejects_duplicate_type() {
        let text = "# TYPE a gauge\n# TYPE a counter\n# EOF\n";
        assert!(validate_openmetrics(text)
            .unwrap_err()
            .contains("duplicate TYPE"));
    }

    #[test]
    fn validator_rejects_bad_unit_suffix() {
        let text = "# TYPE a_seconds gauge\n# UNIT a_seconds bytes\na_seconds 1\n# EOF\n";
        assert!(validate_openmetrics(text).unwrap_err().contains("UNIT"));
    }

    #[test]
    fn validator_rejects_untyped_samples() {
        let text = "mystery 4\n# EOF\n";
        assert!(validate_openmetrics(text)
            .unwrap_err()
            .contains("no matching # TYPE"));
    }

    #[test]
    fn validator_rejects_negative_counters() {
        let text = "# TYPE a counter\na_total -1\n# EOF\n";
        assert!(validate_openmetrics(text).unwrap_err().contains("negative"));
    }

    #[test]
    fn validator_rejects_bad_quantile() {
        let text = "# TYPE s summary\ns{quantile=\"1.5\"} 2\n# EOF\n";
        assert!(validate_openmetrics(text).unwrap_err().contains("outside"));
    }

    #[test]
    fn validator_rejects_histograms_and_exemplars_naming_the_line() {
        let histogram = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n# EOF\n";
        let err = validate_openmetrics(histogram).unwrap_err();
        assert!(
            err.starts_with("line 1:") && err.contains("\"histogram\""),
            "{err}"
        );
        let exemplar = "# TYPE c counter\nc_total 9 # {trace_id=\"ab\"} 1\n# EOF\n";
        let err = validate_openmetrics(exemplar).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("exemplar"),
            "{err}"
        );
    }

    #[test]
    fn validator_rejects_duplicate_samples() {
        let text = "# TYPE a gauge\na{x=\"1\"} 2\na{x=\"1\"} 3\n# EOF\n";
        assert!(validate_openmetrics(text)
            .unwrap_err()
            .contains("duplicate sample"));
    }
}
