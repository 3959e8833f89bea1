//! Task-level parallelism end to end: run SPAM/PSM's LCC phase with real
//! task-process threads, verify the results match the sequential run, then
//! sweep processor counts on the simulated Encore Multimax.
//!
//! ```sh
//! cargo run --release --example task_parallel_speedup
//! ```

use spam::lcc::{run_lcc, Level};
use spam::rtf::run_rtf;
use spam::rules::SpamProgram;
use spam_psm::exec::{ExecConfig, PhaseRun};
use spam_psm::tlp::{run_parallel_lcc, simulated_tlp_curve};
use spam_psm::trace::lcc_trace;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let dataset = spam::datasets::dc();
    println!("dataset: {} (Washington-National-class)", dataset.spec.name);
    let sp = SpamProgram::build();
    let scene = Arc::new(spam::generate_scene(&dataset.spec));
    let rtf = run_rtf(&sp, &scene);
    let fragments = Arc::new(rtf.fragments.clone());
    println!(
        "{} regions → {} fragment hypotheses → {} Level-3 LCC tasks",
        scene.len(),
        fragments.len(),
        fragments.len()
    );

    // --- Real threads: the SPAM/PSM execution model.
    let t0 = Instant::now();
    let seq = run_lcc(&sp, &scene, &fragments, Level::L3);
    let t_seq = t0.elapsed();
    let t0 = Instant::now();
    let how = PhaseRun::new(ExecConfig::central_queue(4));
    let (par, _) = run_parallel_lcc(&sp, &scene, &fragments, Level::L3, &how).unwrap();
    let t_par = t0.elapsed();
    assert_eq!(seq.firings, par.firings);
    assert_eq!(
        seq.consistents.len(),
        par.consistents.len(),
        "parallel run must find the same consistencies"
    );
    println!(
        "\nreal threads: sequential {:?} vs 4 task processes {:?} — identical \
         results ({} consistency records; wall-clock speed-up depends on host cores)",
        t_seq,
        t_par,
        par.consistents.len()
    );

    // --- Simulated Encore Multimax sweep (the Figure 6 measurement).
    let trace = lcc_trace(&seq);
    println!(
        "\nmeasured trace: {} tasks, mean {:.2}s, CV {:.2} (simulated 1990 seconds)",
        trace.tasks.len(),
        trace.tasks.mean(),
        trace.tasks.coeff_of_variance()
    );
    println!("\nEncore Multimax sweep (task processes → speed-up):");
    for (n, s) in simulated_tlp_curve(&trace, 14) {
        let bar = "#".repeat((s * 2.0) as usize);
        println!("  {n:>2}: {s:>5.2}  {bar}");
    }
    println!("\npaper: near-linear, 11.90x at 14 task processes (Level 3).");
}
