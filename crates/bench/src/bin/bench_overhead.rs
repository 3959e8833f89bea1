//! Observability overhead bench: what each observer costs a scene, end to
//! end. Runs the supervised LCC phase (DC, Level 4, 4 workers, central
//! queue) once per *arm* — `off`, the flight recorder at `summary` and at
//! `full`, the live registry with its SLO monitor, scene tracing — checks
//! every run bit-identical to the first, and writes `BENCH_overhead.json`:
//!
//! * `"wall"` — per arm, the median and quartiles of its timed blocks and,
//!   against `off`, the overhead, Δ µs per scene and the pairs lost and won.
//!   Machine-dependent; `benchdiff --ignore wall` skips it.
//! * `"recorder"`, `"live"`, `"trace"` — the deterministic shape of what
//!   the observers saw: event and thread counts, the totals published
//!   through the registry, the retained trace and the critical task chain
//!   recomputed from its service table. Any drift is a code change. The
//!   critical-path cross-check (trace-derived vs. phase-derived, within
//!   1 %) always runs and always gates.
//!
//! One round times a block of [`INNER`] scenes per arm, in an order that
//! rotates every round, so slow drift (thermal, the scheduler, a noisy
//! neighbour) hits every arm alike and round *r* of an arm pairs with round
//! *r* of `off`. `--check-overhead PCT` judges each arm's median overhead
//! against the budget the way the wall-clock ledger judges a regression — a
//! verdict needs evidence: an arm over budget **fails** only when the
//! difference is *resolved* (it lost at least nine pairs in ten and the
//! medians differ by more than `off`'s own inter-quartile range); over
//! budget but not resolved is reported as **UNRESOLVED**, never as a pass.
//!
//! ```sh
//! cargo run --release --bin bench_overhead [-- out.json] [--reps N] [--check-overhead PCT]
//! ```

use spam::lcc::Level;
use spam_psm::exec::{ExecConfig, PhaseRun};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use tlp_bench::{header, median, quantile, Prepared};
use tlp_obs::json::Json;
use tlp_obs::{
    Live, LiveSnapshot, LiveValue, ObsLevel, Recorder, SloConfig, SloMonitor, SpanKind, TraceId,
    Tracing,
};

const WORKERS: usize = 4;
const SEED: u64 = 0;

/// Scenes per timed block: a DC Level-4 scene is ~6 ms, so a single one is
/// scheduler-noise-bound; a block of 5 (~30 ms) amortises the worst of it.
const INNER: usize = 5;

/// What identifies a run's results: firings and total work units.
type Identity = (u64, u64);

/// The observers of each arm's latest scene, for the deterministic sections.
#[derive(Default)]
struct Kept {
    rec: Option<Arc<Recorder>>,
    live: Option<Arc<Live>>,
    tracing: Option<Arc<Tracing>>,
}

fn central() -> PhaseRun<'static> {
    PhaseRun::new(ExecConfig::central_queue(WORKERS))
}

fn scene(p: &Prepared, how: &PhaseRun<'_>) -> Identity {
    let (phase, _) = spam_psm::run_parallel_lcc(&p.sp, &p.scene, &p.fragments, Level::L4, how)
        .expect("supervised LCC");
    (phase.firings, phase.work.total_units())
}

fn recorded(p: &Prepared, level: ObsLevel, kept: &mut Kept) -> Identity {
    let mut how = central();
    how.obs.rec = Recorder::new(level);
    let got = scene(p, &how);
    if level == ObsLevel::Full {
        kept.rec = Some(how.obs.rec);
    }
    got
}

/// One scene under an arm's observers.
type Arm = fn(&Prepared, &mut Kept) -> Identity;

/// The arms, `off` first. An arm builds its observers anew for every scene
/// — creating them (and keeping the finished trace) is part of what they
/// cost; *reading* them afterwards is the consumer's business and happens
/// outside the clock.
const ARMS: [(&str, Arm); 5] = [
    ("off", |p, _| scene(p, &central())),
    ("rec-summary", |p, kept| {
        recorded(p, ObsLevel::Summary, kept)
    }),
    ("rec-full", |p, kept| recorded(p, ObsLevel::Full, kept)),
    ("live", |p, kept| {
        let live = Live::new(0);
        let mut how = central();
        how.obs.slo = Some(Arc::new(SloMonitor::new(
            SloConfig::default(),
            live.handle(),
        )));
        how.obs.live = Arc::clone(&live);
        kept.live = Some(live);
        scene(p, &how)
    }),
    ("tracing", |p, kept| {
        let tracing = Tracing::new();
        let span = tracing.start_scene(SEED, "dc");
        let mut how = central();
        how.obs.span = Some(&span);
        let got = scene(p, &how);
        span.finish();
        kept.tracing = Some(tracing);
        got
    }),
];

/// A counter's lifetime total from a snapshot (0 if absent).
fn total(snap: &LiveSnapshot, name: &str) -> f64 {
    match snap.series.get(name) {
        Some(LiveValue::Counter(total)) => *total as f64,
        _ => 0.0,
    }
}

fn main() -> ExitCode {
    let mut out = "BENCH_overhead.json".to_string();
    let mut reps = 15usize;
    let mut budget: Option<f64> = None;
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
                Some(p) if p >= 0.0 => budget = Some(p),
                _ => {
                    eprintln!("bad --check-overhead (want a percentage >= 0)");
                    return ExitCode::FAILURE;
                }
            },
            other => out = other.to_string(),
        }
    }

    header("Observability overhead bench (LCC Level 4, DC, 4 workers)");
    let p = Prepared::new(spam::datasets::dc());

    // `off`'s results are what every later run must reproduce. Round 0
    // warms every path (pages in the scene, stabilises allocator state) and
    // is not kept.
    let mut kept = Kept::default();
    let reference = ARMS[0].1(&p, &mut kept);
    let mut ms: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); ARMS.len()];
    for round in 0..=reps {
        for k in 0..ARMS.len() {
            let arm = (round + k) % ARMS.len();
            let (name, run) = ARMS[arm];
            let t0 = Instant::now();
            for _ in 0..INNER {
                let got = run(&p, &mut kept);
                assert_eq!(got, reference, "{name}: observers must be read-only");
            }
            if round > 0 {
                ms[arm].push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }

    // Each arm against `off`, round by round.
    let off = &ms[0];
    let (m_off, iqr_off) = (median(off), quantile(off, 0.75) - quantile(off, 0.25));
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>11} {:>10}",
        "arm", "q1 ms", "median", "q3 ms", "overhead", "us/scene", "lost/won"
    );
    let mut wall = Vec::new();
    let mut failed = false;
    for (arm, (name, _)) in ARMS.iter().enumerate() {
        let xs = &ms[arm];
        let (q1, m, q3) = (quantile(xs, 0.25), median(xs), quantile(xs, 0.75));
        let overhead_pct = 100.0 * (m - m_off) / m_off;
        let us_per_scene = (m - m_off) * 1e3 / INNER as f64;
        let lost = xs.iter().zip(off).filter(|(x, o)| x > o).count();
        let won = xs.iter().zip(off).filter(|(x, o)| x < o).count();
        let resolved = lost * 10 >= reps * 9 && (m - m_off).abs() > iqr_off;
        let verdict = match budget {
            Some(b) if arm != 0 && overhead_pct > b => {
                failed |= resolved;
                if resolved {
                    "FAIL: over budget, resolved"
                } else {
                    "UNRESOLVED: over budget, not resolved"
                }
            }
            Some(_) if arm != 0 => "within budget",
            _ => "",
        };
        println!(
            "{name:<12} {q1:>9.2} {m:>9.2} {q3:>9.2} {overhead_pct:>+8.2}% {us_per_scene:>+11.1} \
             {lost:>5}/{won:<4} {verdict}"
        );
        wall.push((
            *name,
            Json::obj(vec![
                ("q1_ms", Json::Num(q1)),
                ("median_ms", Json::Num(m)),
                ("q3_ms", Json::Num(q3)),
                ("overhead_pct", Json::Num(overhead_pct)),
                ("delta_us_per_scene", Json::Num(us_per_scene)),
                ("pairs_lost", Json::Num(lost as f64)),
                ("pairs_won", Json::Num(won as f64)),
            ]),
        ));
    }
    println!(
        "{reps} rounds of {INNER} scenes per arm; off's inter-quartile range {iqr_off:.2} ms \
         ({:.1}% of its median)",
        100.0 * iqr_off / m_off
    );

    let rec = kept.rec.expect("a recorded round");
    let (events, threads) = (rec.len(), rec.threads().len());
    println!("recorder: {events} events across {threads} threads at full");

    let snap = kept.live.expect("a live round").snapshot();
    let completed = total(&snap, "spam_live_tasks_completed");
    println!(
        "live    : {} tasks, {} series; {completed} completed, {} match units, {} firings \
         published",
        completed + total(&snap, "spam_live_dead_letters"),
        snap.series.len(),
        total(&snap, "spam_live_match_units"),
        total(&snap, "spam_live_firings"),
    );

    // Deterministic ids: the retained trace is the derived function of
    // (seed, scene), not of wall time.
    let tracing = kept.tracing.expect("a traced round");
    let trace = (tracing.retained().into_iter())
        .find(|t| t.trace == TraceId::derive(SEED, "dc"))
        .expect("the scene's trace is retained");
    let task_spans = (trace.spans.iter())
        .filter(|s| s.kind == SpanKind::Task)
        .count();
    println!(
        "trace   : {}, {} spans ({task_spans} task attempts), {} services",
        trace.trace,
        trace.spans.len(),
        trace.services.len(),
    );

    // Critical-path cross-check: reconstruct the task set from the trace's
    // recorded per-task service table and compare against the chain computed
    // directly from the measured phase. The two must agree within 1 % — this
    // is the contract `spamctl trace` relies on.
    let (phase, _) =
        spam_psm::run_parallel_lcc(&p.sp, &p.scene, &p.fragments, Level::L4, &central())
            .expect("supervised LCC");
    let cfg = multimax_sim::SimConfig::encore(WORKERS as u32);
    let direct = spam_psm::attribution::critical_path(&spam_psm::trace::lcc_trace(&phase), &cfg);
    let from_trace: Vec<multimax_sim::Task> = (trace.services.iter())
        .map(|s| multimax_sim::Task::with_match(s.task, s.sim_s, s.match_frac))
        .collect();
    let derived = spam_psm::attribution::critical_path_of(&from_trace, &cfg);
    let gap_pct = 100.0 * (derived.length - direct.length).abs() / direct.length.max(1e-12);
    println!(
        "xcheck  : trace-derived critical path t{} {:.3}s vs direct t{} {:.3}s ({gap_pct:.3}% gap)",
        derived.task, derived.length, direct.task, direct.length
    );
    if derived.task != direct.task || gap_pct > 1.0 {
        eprintln!("xcheck  : trace-derived critical path DIVERGES from core::attribution");
        return ExitCode::FAILURE;
    }

    let num = Json::Num;
    let json = Json::obj(vec![
        ("bench", Json::str("overhead")),
        ("dataset", Json::str("DC")),
        ("phase", Json::str("LCC Level 4")),
        ("workers", num(WORKERS as f64)),
        ("reps", num(reps as f64)),
        ("wall", Json::obj(wall)),
        (
            "recorder",
            Json::obj(vec![
                ("events", num(events as f64)),
                ("threads", num(threads as f64)),
            ]),
        ),
        (
            "live",
            Json::obj(vec![
                (
                    "tasks_completed",
                    num(total(&snap, "spam_live_tasks_completed")),
                ),
                ("match_units", num(total(&snap, "spam_live_match_units"))),
                ("firings", num(total(&snap, "spam_live_firings"))),
                ("rhs_actions", num(total(&snap, "spam_live_rhs_actions"))),
                ("task_retries", num(total(&snap, "spam_live_task_retries"))),
                ("dead_letters", num(total(&snap, "spam_live_dead_letters"))),
                ("slo_breaches", num(total(&snap, "spam_slo_breaches"))),
            ]),
        ),
        (
            "trace",
            Json::obj(vec![
                ("trace_id", Json::str(trace.trace.to_string())),
                ("task_spans", num(task_spans as f64)),
                ("services", num(trace.services.len() as f64)),
                ("retries", num(f64::from(trace.retries))),
                ("dead_letters", num(f64::from(trace.dead_letters))),
                ("critical_task", num(f64::from(derived.task))),
                ("critical_len_s", num(derived.length)),
                ("critical_gap_pct", num(gap_pct)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&out, json.write()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if failed {
        eprintln!("check   : an observer's overhead EXCEEDS the budget");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
