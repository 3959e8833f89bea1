//! # spam-psm
//!
//! SPAM/PSM — the paper's primary contribution: **task-level parallelism**
//! for a large production system, characterised by three explicit choices
//! (§3.2, Table 4):
//!
//! * **explicit** parallelism — the decomposition is specified by the
//!   system designer, not extracted by the compiler;
//! * **asynchronous** production firing — each task process is a complete,
//!   independent OPS5 system with its own conflict set; there is no global
//!   resolve barrier;
//! * **working-memory distribution** — every task process holds all the
//!   productions and a private working memory initialised from the task
//!   element.
//!
//! The crate provides:
//!
//! * [`trace`] — turns measured task executions (from the [`spam`] phase
//!   runners) into simulator task sets: per-task service seconds at the
//!   paper's 1.5 MIPS plus the per-task match fraction;
//! * [`measure`] — the decomposition-selection methodology of §4: per-level
//!   mean/σ/CV/task-count rows (Tables 5–7) and the baseline rows of
//!   Table 8;
//! * [`tlp`] — task-level parallelism itself: any phase on real
//!   task-process threads through one entry, [`run_phase`] (verified
//!   equivalent to the sequential run), and simulated speed-up curves at
//!   arbitrary processor counts (Figures 6 and 8);
//! * [`combined`] — TLP × match-parallelism combination and the
//!   multiplicative-speed-up prediction of Table 9;
//! * [`attribution`] — the "speedup doctor": Amdahl decomposition from
//!   profiler counters, exact ideal-vs-measured gap attribution, critical
//!   task chain, and the predicted-vs-measured Table 9 checks behind
//!   `spamctl profile`;
//! * [`whatif`] — the causal what-if profiler: virtual speedups applied to
//!   a recorded trace (a production, a task, a level, a cost-model
//!   component, or the whole match phase), re-simulated to predict the new
//!   makespan/critical chain, and ranked into the "optimize this next"
//!   report behind `spamctl whatif` / `bench_whatif`;
//! * [`exec`] — the one supervised phase runner ("Multimax on real
//!   cores"): control process + worker task processes around a pool whose
//!   placement is either the paper's central FIFO queue or per-worker
//!   Chase–Lev-style deques with cost-model-driven dynamic chunking;
//!   panic isolation, retry, soft deadline and dead letters; measured
//!   wall-clock schedules that convert into the simulator's result shape
//!   for gap attribution and Gantt timelines;
//! * [`supervise`] — the vocabulary that runner shares with its callers
//!   (the [`TaskAttempt`] a task receives, the supervision-overhead
//!   summary);
//! * [`baseline`] — the §6 unoptimised-baseline comparison (the 10–20×
//!   Lisp→C/ParaOPS5 port factor), via the engine's naive-match backend;
//! * [`taxonomy`] — Table 4 as data.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod baseline;
pub mod combined;
pub mod exec;
pub mod measure;
pub mod supervise;
pub mod taxonomy;
pub mod tlp;
pub mod trace;
pub mod whatif;

pub use attribution::{
    amdahl_speedup, build_report, build_svm_report, critical_path, critical_path_of,
    effective_processors_lost, equivalent_processors, perturbed_attribution,
    predicted_from_match_fraction, pure_tlp_config, CriticalPath, GapAttribution, PhaseAmdahl,
    ProfileReport, SpeedupCheck, SvmGapAttribution, SvmReport,
};
pub use combined::{combined_grid, CombinedCell};
pub use exec::{
    chunk_tasks, execute, ExecAttempt, ExecConfig, ExecReport, Observer, PhaseOutcome, PhaseRun,
    WorkerStats,
};
pub use measure::{level_rows, profiled_lcc, table8_row, LevelRowMeasured, Table8Row};
pub use supervise::TaskAttempt;
pub use tlp::{
    attributed_tlp_curve, run_parallel_lcc, run_parallel_lcc_exec, run_parallel_lcc_scene,
    run_parallel_rtf, run_phase, simulated_tlp_curve, synchronous_makespan, RtfParallelResult,
};
pub use trace::{lcc_trace, record_phase_metrics, record_sim_metrics, rtf_trace, PhaseTrace};
pub use whatif::{
    apply_virtual_speedup, build_whatif_report, diminishing_returns, validate_against_measured,
    Target, ValidationPoint, WhatifPrediction, WhatifReport,
};
