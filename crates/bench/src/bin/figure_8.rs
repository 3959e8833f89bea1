//! Figure 8: the RTF phase under task-level and match parallelism.
//!
//! Paper findings (§6.5): RTF decomposes into ~60–100 tasks per dataset at
//! roughly Level-2 granularity with CV ≈ 0.3; task-level speed-ups are good
//! but a little below LCC's (fewer, finer tasks); match parallelism is
//! limited to ≈2.5 (match is ~60 % of RTF execution).

use paraops5::costmodel::{amdahl_limit, match_speedup_curve, CostModel};
use spam::rtf::{rtf_task_batches, RtfPhase, RtfResult};
use spam::task::{drain, TaskProcess};
use spam_psm::tlp::simulated_tlp_curve;
use spam_psm::trace::rtf_trace;
use tlp_bench::{curve_line, header, Prepared};

fn main() {
    header("Figure 8 — RTF task-level and match parallelism");
    let model = CostModel::default();
    for dataset in spam::datasets::all() {
        let p = Prepared::new(dataset);
        // Batch size chosen for the paper's 60-100 tasks per dataset.
        let batch = (p.scene.len() / 70).max(1);
        let batches = rtf_task_batches(&p.scene, batch);
        let (sp, scene) = (p.sp.clone(), std::sync::Arc::clone(&p.scene));
        let phase = RtfPhase { sp, scene, batches };
        let results: Vec<RtfResult> = (drain(&mut TaskProcess::default(), &phase, false))
            .map(|(r, _)| r)
            .collect();
        let trace = rtf_trace(&results);
        let tlp = simulated_tlp_curve(&trace, 14);
        let match_curve = match_speedup_curve(&trace.cycle_log, 13, &model);
        let limit = amdahl_limit(&trace.cycle_log);
        let paper_limit = p
            .dataset
            .paper
            .rtf_match_limit
            .map(|l| format!("{l:.2}"))
            .unwrap_or("n/a".into());
        println!(
            "--- {} ({} RTF tasks, CV {:.2}, match fraction {:.2})",
            p.dataset.spec.name,
            trace.tasks.len(),
            trace.tasks.coeff_of_variance(),
            trace.cycle_log.iter().map(|c| c.match_units).sum::<u64>() as f64
                / trace.cycle_log.iter().map(|c| c.total_units()).sum::<u64>() as f64
        );
        println!("  TLP:   {}", curve_line(&tlp));
        println!(
            "  match: {}   (limit {:.2}, paper {})",
            curve_line(&match_curve),
            limit,
            paper_limit
        );
    }
    println!();
    println!("paper shape: RTF TLP speed-ups slightly below LCC's; match parallelism");
    println!("capped near 2.5 (asymptotes ≈ 2.3), reflecting RTF's ~60% match share.");
}
