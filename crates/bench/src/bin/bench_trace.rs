//! Scene-tracing overhead bench: runs the supervised LCC phase with scene
//! tracing off and on in interleaved repetitions, checks the results are
//! bit-identical, cross-checks the trace-derived critical path against
//! `core::attribution`, and writes `BENCH_trace.json`.
//!
//! The JSON splits into two sections so the CI gate can be precise:
//!
//! * `"wall"` — median wall milliseconds and the measured overhead
//!   percentage. Machine-dependent; `benchdiff --ignore wall` skips it.
//! * `"trace"` — the deterministic shape of the retained trace: the
//!   derived trace id, span counts, exemplar count, and the critical task
//!   chain recomputed from the trace's recorded service table. Any drift
//!   is a code change.
//!
//! `--check-overhead PCT` exits non-zero if the traced arm is more than
//! `PCT` percent slower than the off arm (the tentpole budget is 2 %),
//! comparing the mean of each arm's fastest two-thirds of blocks. The
//! critical-path cross-check (trace-derived vs. phase-derived, within 1 %)
//! always runs and always gates.
//!
//! ```sh
//! cargo run --release --bin bench_trace [-- out.json] [--reps N] [--check-overhead PCT]
//! ```

use spam::lcc::Level;
use spam_psm::exec::{ExecConfig, PhaseRun};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use tlp_bench::{header, Prepared};
use tlp_obs::json::Json;
use tlp_obs::{RetainedTrace, SamplerConfig, SpanKind, Tracing};

const WORKERS: usize = 4;
const SEED: u64 = 0;

fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Mean of the fastest two-thirds of the blocks (ms) — the same one-sided
/// noise estimator `bench_live` gates on.
fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let keep = (2 * s.len()).div_ceil(3).max(1);
    s[..keep].iter().sum::<f64>() / keep as f64
}

/// LCC runs per timed measurement (same block size as `bench_live`).
const INNER: usize = 5;

/// One un-timed LCC run; with `tracing` present the scene is submitted as
/// a traced request (the tail-sampling verdict included).
fn one_run(p: &Prepared, tracing: Option<&Arc<Tracing>>) -> (u64, u64) {
    let span = tracing.map(|tr| tr.start_scene(SEED, "dc"));
    let mut how = PhaseRun::new(ExecConfig::central_queue(WORKERS));
    how.obs.span = span.as_ref();
    let (phase, _) = spam_psm::run_parallel_lcc(&p.sp, &p.scene, &p.fragments, Level::L4, &how)
        .expect("supervised LCC");
    if let Some(s) = span {
        s.finish();
    }
    (phase.firings, phase.work.total_units())
}

/// A timed block of [`INNER`] runs, each checked against the reference
/// results. The traced arm pays for a fresh tracer per run (creation and
/// the tail-sampling verdict are part of the real overhead; *retrieving*
/// the retained trace is a consumer operation and stays outside the
/// clock); the last tracer is returned for the deterministic baseline
/// section.
fn timed_block(
    p: &Prepared,
    traced: bool,
    reference: (u64, u64),
) -> (f64, Option<(Arc<Tracing>, RetainedTrace)>) {
    let mut last_tr = None;
    let t0 = Instant::now();
    for _ in 0..INNER {
        let tracing = traced.then(|| Tracing::new(SamplerConfig::default()));
        let got = one_run(p, tracing.as_ref());
        assert_eq!(
            got, reference,
            "results drifted (traced={traced}); tracing must be read-only"
        );
        if let Some(tr) = tracing {
            last_tr = Some(tr);
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let last = last_tr.and_then(|tr| {
        let t = tr.find(&tlp_obs::TraceId::derive(SEED, "dc").to_string())?;
        Some((tr, t))
    });
    (wall_ms, last)
}

fn main() -> ExitCode {
    let mut out = "BENCH_trace.json".to_string();
    let mut reps = 15usize;
    let mut check_overhead: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => reps = n,
                _ => {
                    eprintln!("bad --reps (want an integer >= 1)");
                    return ExitCode::FAILURE;
                }
            },
            "--check-overhead" => match args.next().and_then(|v| v.parse().ok()) {
                Some(p) if p >= 0.0 => check_overhead = Some(p),
                _ => {
                    eprintln!("bad --check-overhead (want a percentage >= 0)");
                    return ExitCode::FAILURE;
                }
            },
            other => out = other.to_string(),
        }
    }

    header("Scene-tracing overhead bench (LCC Level 4, DC, 4 workers)");
    let p = Prepared::new(spam::datasets::dc());

    // Warm both paths once and fix the reference results every later run
    // must reproduce bit-identically.
    let reference = one_run(&p, None);
    one_run(&p, Some(&Tracing::new(SamplerConfig::default())));

    // Interleave off/on so slow drift (thermal, scheduler) hits both arms.
    let mut off_ms = Vec::with_capacity(reps);
    let mut on_ms = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let (w_off, _) = timed_block(&p, false, reference);
        off_ms.push(w_off);
        let (w_on, l) = timed_block(&p, true, reference);
        on_ms.push(w_on);
        last = l;
        println!("  rep {rep}: off {w_off:.1} ms, traced {w_on:.1} ms ({INNER} runs each)");
    }

    let m_off = median(&off_ms);
    let m_on = median(&on_ms);
    let t_off = trimmed_mean(&off_ms);
    let t_on = trimmed_mean(&on_ms);
    let overhead_pct = 100.0 * (t_on - t_off) / t_off;
    println!("median : off {m_off:.1} ms, traced {m_on:.1} ms");
    println!("trimmed: off {t_off:.1} ms, traced {t_on:.1} ms -> overhead {overhead_pct:+.2}%");

    let (tracing, trace) = last.expect("at least one traced rep");
    // The whole point of deterministic ids: the retained trace is the
    // derived function of (seed, scene), not of wall time.
    assert_eq!(
        trace.trace.to_string(),
        tlp_obs::TraceId::derive(SEED, "dc").to_string()
    );
    let task_spans = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Task)
        .count();
    let exemplars = tracing.exemplars().len();
    println!(
        "trace  : {} [{}], {} spans ({} task attempts), {} services, {} exemplar(s)",
        trace.trace,
        trace.reason.name(),
        trace.spans.len(),
        task_spans,
        trace.services.len(),
        exemplars,
    );

    // Critical-path cross-check: reconstruct the task set from the
    // trace's recorded per-task service table and compare against the
    // chain computed directly from the measured phase. The two must agree
    // within 1 % — this is the contract `spamctl trace` relies on.
    let how = PhaseRun::new(ExecConfig::central_queue(WORKERS));
    let (phase, _) = spam_psm::run_parallel_lcc(&p.sp, &p.scene, &p.fragments, Level::L4, &how)
        .expect("supervised LCC");
    let cfg = multimax_sim::SimConfig::encore(WORKERS as u32);
    let direct = spam_psm::attribution::critical_path(&spam_psm::trace::lcc_trace(&phase), &cfg);
    let from_trace: Vec<multimax_sim::Task> = trace
        .services
        .iter()
        .map(|s| multimax_sim::Task::with_match(s.task, s.sim_s, s.match_frac))
        .collect();
    let derived = spam_psm::attribution::critical_path_of(&from_trace, &cfg);
    let gap_pct = 100.0 * (derived.length - direct.length).abs() / direct.length.max(1e-12);
    println!(
        "xcheck : trace-derived critical path t{} {:.3}s vs direct t{} {:.3}s ({gap_pct:.3}% gap)",
        derived.task, derived.length, direct.task, direct.length
    );
    if derived.task != direct.task || gap_pct > 1.0 {
        eprintln!("xcheck : trace-derived critical path DIVERGES from core::attribution");
        return ExitCode::FAILURE;
    }

    let json = Json::obj(vec![
        ("bench", Json::str("trace")),
        ("dataset", Json::str("DC")),
        ("phase", Json::str("LCC Level 4")),
        ("workers", Json::Num(WORKERS as f64)),
        ("reps", Json::Num(reps as f64)),
        (
            "wall",
            Json::obj(vec![
                ("off_median_ms", Json::Num(m_off)),
                ("on_median_ms", Json::Num(m_on)),
                ("off_trimmed_ms", Json::Num(t_off)),
                ("on_trimmed_ms", Json::Num(t_on)),
                ("overhead_pct", Json::Num(overhead_pct)),
            ]),
        ),
        (
            "trace",
            Json::obj(vec![
                ("trace_id", Json::str(trace.trace.to_string())),
                ("reason", Json::str(trace.reason.name())),
                ("task_spans", Json::Num(task_spans as f64)),
                ("services", Json::Num(trace.services.len() as f64)),
                ("retries", Json::Num(f64::from(trace.retries))),
                ("dead_letters", Json::Num(f64::from(trace.dead_letters))),
                ("exemplars", Json::Num(exemplars as f64)),
                ("critical_task", Json::Num(f64::from(derived.task))),
                ("critical_len_s", Json::Num(derived.length)),
                ("critical_gap_pct", Json::Num(gap_pct)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&out, json.write()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    if let Some(budget) = check_overhead {
        if overhead_pct > budget {
            eprintln!("check  : tracing overhead {overhead_pct:+.2}% EXCEEDS the {budget}% budget");
            return ExitCode::FAILURE;
        }
        println!("check  : tracing overhead {overhead_pct:+.2}% within the {budget}% budget — ok");
    }
    ExitCode::SUCCESS
}
