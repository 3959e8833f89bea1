//! Recovery bench: crash-recovery cost vs checkpoint interval. A
//! fault-free sequential LCC run (DC, Level 3) fixes the expected results
//! and per-task cycle counts; for each checkpoint interval a seeded
//! `chaos_schedule` kills three tasks mid-cycle (plus one kill holding the
//! checkpoint lock and one torn WAL tail) and the checkpointed parallel
//! phase is measured: cycles replayed, cycles saved versus from-scratch
//! retries, WAL records replayed, torn bytes dropped, and the wall-clock
//! recovery latency. Writes `BENCH_recovery.json`.
//!
//! ```sh
//! cargo run --release --bin bench_recovery [-- out.json]
//! ```
//!
//! CI compares the output against `crates/bench/baselines/BENCH_recovery.json`
//! with `benchdiff --ignore wall_ms` (replay/saved cycle counts are
//! deterministic; wall time is not). Every interval's run is also asserted
//! identical to the fault-free results — the bench doubles as an
//! end-to-end recovery acceptance check.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spam::lcc::{run_lcc, Level};
use spam::rules::SpamProgram;
use spam_psm::exec::{ExecConfig, PhaseRun};
use spam_psm::{run_parallel_lcc, CheckpointConfig};
use tlp_bench::header;
use tlp_fault::SupervisorConfig;
use tlp_obs::json::Json;

const SEED: u64 = 42;
const KILLS: u32 = 3;
const WORKERS: usize = 3;
const INTERVALS: &[u64] = &[1, 2, 4, 8, 16];

fn main() -> ExitCode {
    let mut out = "BENCH_recovery.json".to_string();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--help" | "-h" => {
                eprintln!("usage: bench_recovery [OUT.json]");
                return ExitCode::FAILURE;
            }
            _ => out = a,
        }
    }

    header("Recovery bench — replay cost vs checkpoint interval (LCC Level 3, DC)");
    let dataset = spam::datasets::dc();
    let sp = SpamProgram::build();
    let scene = Arc::new(spam::generate_scene(&dataset.spec));
    let frags = Arc::new(spam::rtf::run_rtf(&sp, &scene).fragments);

    // Fault-free reference: expected results and per-task cycle counts.
    let seq = run_lcc(&sp, &scene, &frags, Level::L3);
    let task_cycles: Vec<u64> = seq.units.iter().map(|u| u.firings).collect();
    println!(
        "baseline: {} tasks, {} firings, {} consistency records",
        seq.units.len(),
        seq.firings,
        seq.consistents.len()
    );

    let cfg = SupervisorConfig::default()
        .with_retries(3)
        .with_backoff(Duration::from_millis(1));
    let mut rows = Vec::new();
    let mut walls = Vec::new();
    for &interval in INTERVALS {
        let plan = tlp_fault::chaos_schedule(SEED, KILLS, &task_cycles, interval);
        let start = Instant::now();
        let how = PhaseRun {
            cfg: cfg.clone(),
            plan: plan.clone(),
            checkpoint: Some(CheckpointConfig::every(interval)),
            ..PhaseRun::new(ExecConfig::central_queue(WORKERS))
        };
        let (par, measured) =
            run_parallel_lcc(&sp, &scene, &frags, Level::L3, &how).expect("chaos run completes");
        let recovery = measured.recovery;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        // The bench doubles as the acceptance check: crash + recover must
        // change nothing about what the phase computes.
        assert!(par.report.dead_letters().is_empty(), "{}", plan.describe());
        assert_eq!(par.units, seq.units, "{}", plan.describe());
        assert_eq!(par.consistents, seq.consistents, "{}", plan.describe());
        assert_eq!(par.fragments, seq.fragments, "{}", plan.describe());
        let scratch_cost = recovery
            .check(&plan, &task_cycles, interval)
            .unwrap_or_else(|f| panic!("interval {interval}: {f:?}\n{}", plan.describe()));

        println!(
            "interval {interval:>2}: {:>3} cycles replayed, {:>3} saved of {scratch_cost} \
             ({} recovered, {} WAL records, {} torn bytes, {wall_ms:.0} ms)",
            recovery.cycles_replayed,
            recovery.cycles_saved,
            recovery.recovered_tasks(),
            recovery.wal_records_replayed,
            recovery.wal_bytes_dropped,
        );
        rows.push(Json::obj(vec![
            ("n", Json::Num(interval as f64)),
            (
                "cycles_replayed",
                Json::Num(recovery.cycles_replayed as f64),
            ),
            ("cycles_saved", Json::Num(recovery.cycles_saved as f64)),
            ("scratch_cost", Json::Num(scratch_cost as f64)),
            (
                "wal_records_replayed",
                Json::Num(recovery.wal_records_replayed as f64),
            ),
            (
                "wal_bytes_dropped",
                Json::Num(recovery.wal_bytes_dropped as f64),
            ),
            ("recovered", Json::Num(recovery.recovered_tasks() as f64)),
        ]));
        walls.push((format!("interval_{interval}"), Json::Num(wall_ms)));
    }

    let doc = Json::obj(vec![
        ("bench", Json::str("recovery")),
        ("dataset", Json::str(dataset.spec.name)),
        ("phase", Json::str("LCC Level 3")),
        ("seed", Json::Num(SEED as f64)),
        ("kills", Json::Num(KILLS as f64)),
        ("workers", Json::Num(WORKERS as f64)),
        ("tasks", Json::Num(seq.units.len() as f64)),
        ("firings", Json::Num(seq.firings as f64)),
        ("intervals", Json::Arr(rows)),
        ("wall_ms", Json::Obj(walls)),
    ]);
    std::fs::write(&out, doc.write()).expect("write bench json");
    println!("wrote {out}");
    ExitCode::SUCCESS
}
