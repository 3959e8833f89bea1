//! Full SPAM pipeline on a synthetic airport: RTF → LCC → FA → MODEL.
//!
//! ```sh
//! cargo run --release --example airport_interpretation
//! ```
//!
//! Interprets the Moffett-Field-class scene and prints the interpretation
//! at each level: fragment hypotheses, consistency support, functional
//! areas, and the final scene model — plus the phase statistics of
//! Tables 1–3.

use spam::fragments::FragmentKind;
use spam::phases::run_pipeline;

fn main() {
    let dataset = spam::datasets::moff();
    println!(
        "interpreting {} ({} expected-structure airport, seed {:#x})",
        dataset.spec.name, dataset.spec.runways, dataset.spec.seed
    );
    let r = run_pipeline(&spam::rules::SpamProgram::build(), &dataset);
    println!(
        "scene: {} segmented regions over {:.1} km²",
        r.scene.len(),
        r.scene.covered_area() / 1e6
    );

    // --- RTF
    println!("\nRTF: {} fragment hypotheses", r.rtf.fragments.len());
    for kind in spam::fragments::ALL_KINDS {
        let n = r.rtf.fragments.iter().filter(|f| f.kind == kind).count();
        if n > 0 {
            println!("  {kind:<18} {n}");
        }
    }

    // --- LCC
    println!(
        "\nLCC: {} tasks, {} consistency records",
        r.lcc.units.len(),
        r.lcc.consistents.len()
    );
    let mut best: Vec<_> = r.fragments.iter().collect();
    best.sort_by_key(|f| -f.support);
    println!("  best-supported hypotheses:");
    for f in best.iter().take(6) {
        println!(
            "    fragment {:>3} (region {:>3}): {:<18} support {}",
            f.id,
            f.region,
            f.kind.name(),
            f.support
        );
    }
    // Classification accuracy against the generator's ground truth, for
    // supported hypotheses.
    let mut right = 0;
    let mut wrong = 0;
    for f in r.fragments.iter().filter(|f| f.support >= 3) {
        match r.scene.region(f.region).truth {
            Some(t) if t == f.kind => right += 1,
            Some(_) => wrong += 1,
            None => {}
        }
    }
    println!("  supported hypotheses matching ground truth: {right} vs {wrong} mismatched");

    // --- FA
    println!(
        "\nFA: {} functional areas ({} predictions opened)",
        r.fa.areas.len(),
        r.fa.predictions
    );
    for a in r.fa.areas.iter().take(8) {
        println!(
            "    area {:>2} {:<14} seed fragment {:>3} ({} members)",
            a.id, a.kind, a.seed, a.members
        );
    }

    // --- MODEL
    println!(
        "\nMODEL: {} scene model(s); {} areas selected, score {}",
        r.model.models, r.model.areas_used, r.model.score
    );
    println!(
        "       coverage {:.0}% of segmented area; window overlap {:.1}%",
        100.0 * r.model.metrics.coverage,
        100.0 * r.model.metrics.window_overlap
    );

    // --- Phase statistics (Tables 1-3 shape)
    println!("\nphase statistics (simulated 1.5 MIPS Encore-class seconds):");
    println!(
        "  {:<7} {:>10} {:>10} {:>12}",
        "phase", "seconds", "firings", "match-frac"
    );
    for (name, s) in ["RTF", "LCC", "FA", "MODEL"].iter().zip(&r.stats) {
        println!(
            "  {:<7} {:>10.1} {:>10} {:>12.2}",
            name, s.seconds, s.firings, s.match_fraction
        );
    }
    println!(
        "  total {:>12.1}s — LCC dominates, as in the paper's Tables 1-3",
        r.total_seconds()
    );
    let runways = r
        .fragments
        .iter()
        .filter(|f| f.kind == FragmentKind::Runway && f.support > 0)
        .count();
    println!("\n{runways} supported runway hypotheses in the final interpretation");
}
