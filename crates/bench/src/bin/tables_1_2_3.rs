//! Tables 1–3: per-phase run-time statistics for SF, DC, and MOFF.
//!
//! Paper columns: total CPU time per phase, production firings,
//! productions/second, and hypotheses. Our times are simulated seconds on
//! the paper's 1.5 MIPS Encore-class processor; absolute values are not
//! expected to match, the *shape* is: LCC dominates time and firings, FA
//! is RHS-heavy, MODEL is small.

use spam::phases::run_pipeline;
use spam::rules::SpamProgram;
use tlp_bench::{header, paper_f, paper_u};

fn main() {
    let sp = SpamProgram::build();
    for dataset in spam::datasets::all() {
        let name = dataset.spec.name;
        let paper = dataset.paper.clone();
        let r = run_pipeline(&sp, &dataset);
        header(&format!(
            "Table {} — {name}",
            match name {
                "SF" => "1 (San Francisco, log #63)",
                "DC" => "2 (Washington National, log #405)",
                _ => "3 (NASA Ames Moffett Field, log #415)",
            }
        ));
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "", "RTF", "LCC", "FA", "MODEL", "Total"
        );

        let hours: Vec<f64> = r.stats.iter().map(|s| s.seconds / 3600.0).collect();
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            "measured time (h)",
            hours[0],
            hours[1],
            hours[2],
            hours[3],
            hours.iter().sum::<f64>()
        );
        if let Some(ph) = paper.phase_hours {
            println!(
                "{:<22} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                "paper time (h)",
                ph[0],
                ph[1],
                ph[2],
                ph[3],
                ph.iter().sum::<f64>()
            );
        } else {
            println!("{:<22} {:>10}", "paper time (h)", "n/a (unreadable scan)");
        }

        let firings: Vec<u64> = r.stats.iter().map(|s| s.firings).collect();
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "measured firings",
            firings[0],
            firings[1],
            firings[2],
            firings[3],
            firings.iter().sum::<u64>()
        );
        if let Some(pf) = paper.phase_firings {
            println!(
                "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "paper firings",
                pf[0],
                pf[1],
                pf[2],
                pf[3],
                pf.iter().sum::<u64>()
            );
        }

        println!(
            "{:<22} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            "measured prods/sec",
            r.stats[0].prods_per_second(),
            r.stats[1].prods_per_second(),
            r.stats[2].prods_per_second(),
            r.stats[3].prods_per_second(),
        );
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10}",
            "measured hypotheses",
            r.rtf.fragments.len(),
            "-",
            r.fa.areas.len(),
            r.model.models
        );
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10}",
            "paper hypotheses",
            paper_u(paper.hypotheses_rtf.map(u64::from)),
            "-",
            paper_u(paper.hypotheses_fa.map(u64::from)),
            1
        );
        println!(
            "match fraction: RTF {:.2} (paper ~0.60)   LCC {:.2} (paper 0.30-0.50)",
            r.stats[0].match_fraction, r.stats[1].match_fraction
        );
        let _ = paper_f(None);
    }

    header("Shape checks");
    println!("expected: LCC dominates time and firings in every dataset; one scene model each.");
}
