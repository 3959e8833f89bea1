//! Print/parse round-trip of the full generated SPAM rule base, checked all
//! the way down to engine behaviour: an LCC task run under the reparsed
//! program must produce the identical interpretation.

use ops5::printer::print_program;
use ops5::Program;
use spam::lcc::{decompose, run_lcc_unit, Level};
use spam::rtf::run_rtf;
use spam::rules::SpamProgram;
use spam::task::TaskProcess;
use std::sync::Arc;

#[test]
fn spam_rulebase_survives_print_parse_with_identical_behaviour() {
    let src = spam::rules::spam_source();
    let p1 = Arc::new(Program::parse(&src).unwrap());
    let printed = print_program(&p1);
    let p2 = Arc::new(
        Program::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse of printed rule base failed: {e}")),
    );

    assert_eq!(p1.productions.len(), p2.productions.len());
    for (a, b) in p1.productions.iter().zip(&p2.productions) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.specificity, b.specificity, "{}", a.name);
        assert_eq!(a.n_vars, b.n_vars, "{}", a.name);
        assert_eq!(a.ces.len(), b.ces.len(), "{}", a.name);
        assert_eq!(a.actions.len(), b.actions.len(), "{}", a.name);
    }

    // Behavioural equivalence: run the same LCC tasks under both programs.
    let original = SpamProgram::build();
    let reparsed = SpamProgram::from_program(p2);
    let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
    let rtf = run_rtf(&original, &scene);
    let frags = Arc::new(rtf.fragments);
    let units = decompose(&scene, &frags, Level::L3);
    let (mut tp_a, mut tp_b) = (TaskProcess::default(), TaskProcess::default());
    for unit in units.iter().take(12) {
        let a = run_lcc_unit(&mut tp_a, &original, &scene, &frags, unit);
        let b = run_lcc_unit(&mut tp_b, &reparsed, &scene, &frags, unit);
        assert_eq!(a.firings, b.firings, "{unit:?}");
        assert_eq!(a.consistents, b.consistents, "{unit:?}");
        assert_eq!(a.supports, b.supports, "{unit:?}");
    }

    // And printing the reparsed program is a fixed point.
    let printed2 = print_program(&reparsed.program);
    let p3 = Program::parse(&printed2).unwrap();
    assert_eq!(printed2, print_program(&p3));
}
