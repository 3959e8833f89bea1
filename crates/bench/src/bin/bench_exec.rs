//! Real-executor bench: runs the LCC phase on the work-stealing executor
//! (`spam_psm::exec`) across a sweep of worker counts, checks every run is
//! bit-identical to the sequential phase, and writes `BENCH_exec.json`
//! with the measured wall-clock speed-up curve next to the simulated
//! Encore curve at the same worker counts.
//!
//! The JSON splits into two sections so the CI gate can be precise:
//!
//! * `"wall"` — the host's `nproc`, and per worker count the median wall
//!   milliseconds, measured speed-up over the one-worker arm, pool
//!   utilization, `fork_ms` (the workers' summed pick-up latency per
//!   phase, `ExecReport::spawn_ready_s`), and steal / overflow counters.
//!   Machine-dependent (steal counts are scheduling noise, and a curve
//!   recorded on fewer cores than workers is flat); `benchdiff --ignore
//!   wall` skips it.
//! * `"exec"` — the deterministic shape: task and chunk counts, phase
//!   firings and total work units, and the simulated Encore speed-up at
//!   the matched worker counts. Any drift is a code change.
//!
//! ```sh
//! cargo run --release --bin bench_exec [-- out.json] [--reps N]
//! ```

use spam::lcc::Level;
use spam_psm::exec::{ExecConfig, PhaseRun};
use std::process::ExitCode;
use std::time::Instant;
use tlp_bench::{header, median, Prepared};
use tlp_obs::json::Json;

/// Worker counts swept; the first is the speed-up baseline.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// LCC runs per timed measurement.
const INNER: usize = 3;

/// One executor run at `workers`; returns the phase identity tuple and the
/// measured report.
fn one_run(p: &Prepared, workers: usize) -> ((u64, u64, usize), spam_psm::exec::ExecReport) {
    let exec = ExecConfig::with_cost_model(workers, &paraops5::CostModel::default());
    let (phase, measured) = spam_psm::run_parallel_lcc(
        &p.sp,
        &p.scene,
        &p.fragments,
        Level::L3,
        &PhaseRun::new(exec),
    )
    .expect("exec LCC");
    (
        (
            phase.firings,
            phase.work.total_units(),
            phase.consistents.len(),
        ),
        measured,
    )
}

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut reps = 5usize;
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
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag} (usage: bench_exec [--reps N] [OUT.json])");
                return ExitCode::FAILURE;
            }
            path => {
                if let Some(prev) = &out {
                    eprintln!("output path given twice ({prev}, then {path})");
                    return ExitCode::FAILURE;
                }
                out = Some(path.to_string());
            }
        }
    }
    let out = out.unwrap_or_else(|| "BENCH_exec.json".to_string());

    header("Work-stealing executor bench (LCC Level 3, DC, real cores)");
    let p = Prepared::new(spam::datasets::dc());

    // Sequential reference: every executor run at every worker count must
    // reproduce it bit-for-bit. That's the whole point of the executor —
    // the schedule is machine noise, the results are not.
    let seq = spam::lcc::run_lcc(&p.sp, &p.scene, &p.fragments, Level::L3);
    let reference = (seq.firings, seq.work.total_units(), seq.consistents.len());
    println!(
        "reference: {} tasks, {} firings, {} work units",
        seq.units.len(),
        reference.0,
        reference.1
    );

    // Warm once, then sweep. Reps interleave worker counts so slow drift
    // (thermal, scheduler) spreads across all arms.
    let _ = one_run(&p, SWEEP[0]);
    let mut wall_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); SWEEP.len()];
    let mut fork_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(reps * INNER); SWEEP.len()];
    let mut last_report: Vec<Option<spam_psm::exec::ExecReport>> = vec![None; SWEEP.len()];
    for rep in 0..reps {
        for (i, &w) in SWEEP.iter().enumerate() {
            let t0 = Instant::now();
            for _ in 0..INNER {
                let (got, measured) = one_run(&p, w);
                assert_eq!(
                    got, reference,
                    "results drifted at {w} workers; the executor must be schedule-independent"
                );
                fork_ms[i].push(measured.spawn_ready_s.iter().sum::<f64>() * 1e3);
                last_report[i] = Some(measured);
            }
            wall_ms[i].push(t0.elapsed().as_secs_f64() * 1e3 / INNER as f64);
        }
        let row: Vec<String> = SWEEP
            .iter()
            .zip(&wall_ms)
            .map(|(w, xs)| format!("{w}w {:.1}ms", xs[rep]))
            .collect();
        println!("  rep {rep}: {}", row.join(", "));
    }

    let medians: Vec<f64> = wall_ms.iter().map(|xs| median(xs)).collect();
    let base = medians[0];
    let reports: Vec<spam_psm::exec::ExecReport> = last_report
        .into_iter()
        .map(|r| r.expect("one rep"))
        .collect();

    // The simulated Encore curve at the matched worker counts — the
    // deterministic twin the measured curve sits next to.
    let trace = spam_psm::trace::lcc_trace(&seq);
    let sim_curve: Vec<(usize, f64)> = SWEEP
        .iter()
        .map(|&w| {
            let cfg = multimax_sim::SimConfig::encore(w as u32);
            let base1 =
                multimax_sim::simulate(&multimax_sim::SimConfig::encore(1), &trace.tasks.tasks)
                    .makespan;
            let r = multimax_sim::simulate(&cfg, &trace.tasks.tasks);
            (w, base1 / r.makespan)
        })
        .collect();

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!("\n  host: {nproc} processor(s), {reps} rep(s) of {INNER} phases per worker count");
    println!("  workers   measured-ms  speedup  util  fork-ms  steals  overflow | simulated");
    let mut wall_rows = Vec::new();
    for (i, &w) in SWEEP.iter().enumerate() {
        let m = &reports[i];
        let speedup = base / medians[i];
        let fork = median(&fork_ms[i]);
        println!(
            "  {w:>7}   {:>11.1}  {speedup:>7.2}  {:>3.0}%  {fork:>7.3}  {:>6}  {:>8} | {:>9.2}",
            medians[i],
            100.0 * m.utilization(),
            m.steals(),
            m.overflow_taken(),
            sim_curve[i].1,
        );
        wall_rows.push(Json::obj(vec![
            ("workers", Json::Num(w as f64)),
            ("median_ms", Json::Num(medians[i])),
            ("speedup", Json::Num(speedup)),
            ("utilization", Json::Num(m.utilization())),
            ("fork_ms", Json::Num(fork)),
            ("steals", Json::Num(m.steals() as f64)),
            ("overflow", Json::Num(m.overflow_taken() as f64)),
        ]));
    }

    // Chunking is a pure function of the estimates and the cost model's
    // granularity, so the chunk count is worker-independent and gates.
    let chunks = reports[0].chunks;
    assert!(
        reports.iter().all(|r| r.chunks == chunks),
        "chunk count must not depend on the worker count"
    );

    let json = Json::obj(vec![
        ("bench", Json::str("exec")),
        ("dataset", Json::str("DC")),
        ("phase", Json::str("LCC Level 3")),
        ("reps", Json::Num(reps as f64)),
        (
            "wall",
            Json::obj(vec![
                ("nproc", Json::Num(nproc as f64)),
                ("phases_per_rep", Json::Num(INNER as f64)),
                ("by_workers", Json::Arr(wall_rows)),
            ]),
        ),
        (
            "exec",
            Json::obj(vec![
                ("tasks", Json::Num(seq.units.len() as f64)),
                ("chunks", Json::Num(chunks as f64)),
                ("firings", Json::Num(reference.0 as f64)),
                ("work_units", Json::Num(reference.1 as f64)),
                ("consistents", Json::Num(reference.2 as f64)),
                (
                    "sim_speedup",
                    Json::Arr(
                        sim_curve
                            .iter()
                            .map(|&(w, s)| {
                                Json::obj(vec![
                                    ("workers", Json::Num(w as f64)),
                                    ("speedup", Json::Num(s)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&out, json.write()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}
