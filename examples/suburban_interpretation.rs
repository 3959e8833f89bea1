//! The paper's second task area: suburban house scene analysis (§2.2).
//!
//! ```sh
//! cargo run --release --example suburban_interpretation
//! ```
//!
//! Demonstrates that the same architecture — the same rule base, the same
//! four phases, the same task decomposition — interprets a completely
//! different domain once the scene-type knowledge (prototypes + constraint
//! rows whose subjects appear) selects the suburban envelope.

use spam::fragments::FragmentKind;
use spam::generate::SuburbSpec;
use spam::phases::run_pipeline_scene;
use std::sync::Arc;

fn main() {
    let spec = SuburbSpec::demo();
    let scene = Arc::new(spam::generate_suburb(&spec));
    println!(
        "interpreting {} — suburban housing development, {} regions",
        scene.name,
        scene.len()
    );
    let r = run_pipeline_scene(&spam::rules::SpamProgram::build(), Arc::clone(&scene));

    println!("\nRTF: {} fragment hypotheses", r.rtf.fragments.len());
    for kind in [
        FragmentKind::House,
        FragmentKind::Street,
        FragmentKind::Driveway,
        FragmentKind::Garage,
        FragmentKind::SwimmingPool,
        FragmentKind::Yard,
    ] {
        let n = r.rtf.fragments.iter().filter(|f| f.kind == kind).count();
        let truth = scene
            .regions
            .iter()
            .filter(|g| g.truth == Some(kind))
            .count();
        println!(
            "  {:<14} {n:>4} hypotheses ({truth} in ground truth)",
            kind.name()
        );
    }

    println!(
        "\nLCC: {} consistency records; best-supported hypotheses:",
        r.lcc.consistents.len()
    );
    let mut best: Vec<_> = r.fragments.iter().collect();
    best.sort_by_key(|f| -f.support);
    for f in best.iter().take(6) {
        println!(
            "    fragment {:>3}: {:<14} support {:>2} (truth: {})",
            f.id,
            f.kind.name(),
            f.support,
            scene
                .region(f.region)
                .truth
                .map(|t| t.name())
                .unwrap_or("clutter")
        );
    }

    println!("\nFA: {} functional areas", r.fa.areas.len());
    let lots = r.fa.areas.iter().filter(|a| a.kind == "house-lot").count();
    let streets =
        r.fa.areas
            .iter()
            .filter(|a| a.kind == "street-area")
            .count();
    println!("    {lots} house lots, {streets} street areas");

    println!(
        "\nMODEL: {} model, {} areas, score {}",
        r.model.models, r.model.areas_used, r.model.score
    );
    println!(
        "\nphase profile: RTF {:.0}s / LCC {:.0}s / FA {:.0}s / MODEL {:.0}s — \
         LCC dominates here too",
        r.stats[0].seconds, r.stats[1].seconds, r.stats[2].seconds, r.stats[3].seconds
    );
}
