//! OPS5 semantic corner cases, exercised end to end through the engine.

use ops5::{Engine, Program, ReteConfig, Strategy, Value};
use std::sync::Arc;

fn engine(src: &str) -> Engine {
    Engine::new(Arc::new(Program::parse(src).unwrap()))
}

#[test]
fn lex_vs_mea_pick_different_instantiations() {
    // Two goals; MEA follows the *first CE's* recency (the newer goal),
    // LEX the overall recency.
    let src = "
        (literalize goal name)
        (literalize step n)
        (p act (goal ^name <g>) (step ^n <s>) --> (write <g> <s>) (remove 2))
    ";
    // LEX: newest step dominates regardless of goal age.
    let mut e = engine(src);
    e.make_wme("goal", &[("name", Value::symbol("alpha"))])
        .unwrap();
    e.make_wme("goal", &[("name", Value::symbol("beta"))])
        .unwrap();
    e.make_wme("step", &[("n", 1.into())]).unwrap();
    e.step().unwrap();
    assert!(
        e.output.contains("beta"),
        "LEX favours overall recency: {}",
        e.output
    );

    // MEA: first-CE tag dominates, same outcome here (beta is newer) —
    // build a case where they diverge: goal alpha newer but step older.
    let mut e = engine(src);
    e.set_strategy(Strategy::Mea);
    e.make_wme("goal", &[("name", Value::symbol("old-goal"))])
        .unwrap();
    e.make_wme("step", &[("n", 7.into())]).unwrap();
    e.make_wme("goal", &[("name", Value::symbol("new-goal"))])
        .unwrap();
    e.step().unwrap();
    assert!(
        e.output.contains("new-goal"),
        "MEA follows the first condition element's recency: {}",
        e.output
    );
}

#[test]
fn modify_after_remove_in_same_rhs_is_a_safe_no_op() {
    let src = "
        (literalize a x)
        (p weird (a ^x <x>) --> (remove 1) (modify 1 ^x 99))
    ";
    let mut e = engine(src);
    e.make_wme("a", &[("x", 1.into())]).unwrap();
    let out = e.run(10);
    assert_eq!(out.firings, 1);
    assert!(out.error.is_none());
    assert_eq!(e.wm().len(), 0, "the element stays removed");
}

#[test]
fn halt_mid_rhs_still_finishes_the_rhs() {
    let src = "
        (literalize a x)
        (literalize log x)
        (p go (a) --> (halt) (make log ^x after-halt))
        (p never (log ^x after-halt) --> (make log ^x fired-after-halt))
    ";
    let mut e = engine(src);
    e.make_wme("a", &[]).unwrap();
    let out = e.run(10);
    assert!(out.halted);
    assert_eq!(out.firings, 1);
    // The RHS completed (log exists) but no further cycle ran.
    let logs: Vec<String> = e
        .wm()
        .iter()
        .filter(|(_, w)| w.class == ops5::sym("log"))
        .map(|(_, w)| w.get(0).to_string())
        .collect();
    assert_eq!(logs, vec!["after-halt"]);
}

#[test]
fn negation_of_own_product_fires_once_per_subject() {
    let src = "
        (literalize subj id)
        (literalize mark subj)
        (p mark-once (subj ^id <s>) -(mark ^subj <s>) --> (make mark ^subj <s>))
    ";
    let mut e = engine(src);
    for i in 0..7 {
        e.make_wme("subj", &[("id", i.into())]).unwrap();
    }
    let out = e.run(100);
    assert_eq!(out.firings, 7);
    assert!(out.quiescent());
}

#[test]
fn chained_negations_express_priority() {
    // Classic OPS5 idiom: a default rule that fires only when no better
    // rule can.
    let src = "
        (literalize input kind)
        (literalize out choice)
        (p best (input ^kind primary) -(out) --> (make out ^choice primary))
        (p fallback (input) -(input ^kind primary) -(out) --> (make out ^choice fallback))
    ";
    let mut e = engine(src);
    e.make_wme("input", &[("kind", Value::symbol("secondary"))])
        .unwrap();
    e.run(10);
    let choice = e
        .wm()
        .iter()
        .find(|(_, w)| w.class == ops5::sym("out"))
        .unwrap()
        .1
        .get(0);
    assert_eq!(choice, Value::symbol("fallback"));

    let mut e = engine(src);
    e.make_wme("input", &[("kind", Value::symbol("primary"))])
        .unwrap();
    e.run(10);
    let choices: Vec<Value> = e
        .wm()
        .iter()
        .filter(|(_, w)| w.class == ops5::sym("out"))
        .map(|(_, w)| w.get(0))
        .collect();
    assert_eq!(choices, vec![Value::symbol("primary")]);
}

#[test]
fn disjunction_matches_mixed_types() {
    let src = "
        (literalize a v)
        (literalize hit v)
        (p d (a ^v << 1 2.5 water nil >>) --> (make hit ^v yes) (remove 1))
    ";
    let mut e = engine(src);
    e.make_wme("a", &[("v", 1.into())]).unwrap();
    e.make_wme("a", &[("v", 2.5.into())]).unwrap();
    e.make_wme("a", &[("v", Value::symbol("water"))]).unwrap();
    e.make_wme("a", &[]).unwrap(); // nil slot
    e.make_wme("a", &[("v", 3.into())]).unwrap(); // no match
    let out = e.run(100);
    assert_eq!(out.firings, 4);
}

#[test]
fn negative_zero_joins_with_zero_on_the_indexed_path_too() {
    // `0 = -0.0` numerically. The two `a`s put the join's memory above the
    // population at which it probes its hash index instead of scanning, so
    // the index key of `-0.0` has to be `0`'s — it used not to be, and the
    // default network missed the match the scanning one finds.
    let src = "
        (literalize a x)
        (literalize b y)
        (p join (a ^x <v>) (b ^y <v>) --> (write matched <v>))
    ";
    for config in [ReteConfig::shared(), ReteConfig::unshared()] {
        let program = Arc::new(Program::parse(src).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let mut e = Engine::with_compiled_config(program, compiled, config);
        e.make_wme("a", &[("x", 0.into())]).unwrap();
        e.make_wme("a", &[("x", 7.into())]).unwrap();
        e.make_wme("b", &[("y", Value::Float(-0.0))]).unwrap();
        let out = e.run(10);
        assert_eq!(out.firings, 1, "{config:?}");
        assert!(out.quiescent());
    }
}

#[test]
fn same_type_predicate_separates_symbols_from_numbers() {
    let src = "
        (literalize probe v ref)
        (literalize ok v)
        (p t (probe ^ref <r> ^v { <x> <=> <r> }) --> (make ok ^v <x>) (remove 1))
    ";
    let mut e = engine(src);
    e.make_wme("probe", &[("v", 3.into()), ("ref", 10.5.into())])
        .unwrap(); // both numeric
    e.make_wme("probe", &[("v", Value::symbol("a")), ("ref", 7.into())])
        .unwrap(); // mixed
    let out = e.run(10);
    assert_eq!(out.firings, 1, "only the numeric pair is <=>-compatible");
}

#[test]
fn recency_chains_drive_depth_first_behaviour() {
    // LEX's recency makes rule firings depth-first: the newest WME is
    // elaborated before older siblings.
    let src = "
        (literalize node id parent depth)
        (literalize log id)
        (p expand (node ^id <i> ^depth { <d> < 2 })
           -->
           (make log ^id <i>)
           (make node ^id (compute <i> * 10) ^parent <i> ^depth (compute <d> + 1))
           (make node ^id (compute <i> * 10 + 1) ^parent <i> ^depth (compute <d> + 1))
           (remove 1))
    ";
    let mut e = engine(src);
    e.make_wme("node", &[("id", 1.into()), ("depth", 0.into())])
        .unwrap();
    e.make_wme("node", &[("id", 2.into()), ("depth", 0.into())])
        .unwrap();
    let out = e.run(100);
    assert!(out.quiescent());
    // Node 2 (newer) is expanded first, and its children before node 1.
    let order: Vec<i64> = e
        .wm()
        .iter()
        .filter(|(_, w)| w.class == ops5::sym("log"))
        .map(|(_, w)| w.get(0).as_int().unwrap())
        .collect();
    assert_eq!(order.first(), Some(&2), "order: {order:?}");
    let pos = |v: i64| order.iter().position(|&x| x == v).unwrap();
    assert!(
        pos(21) < pos(1),
        "2's children expand before node 1: {order:?}"
    );
}

#[test]
fn external_value_position_feeds_tests_next_cycle() {
    let src = "
        (literalize item n score)
        (literalize best n)
        (p score (item ^n <n> ^score nil)
           -->
           (modify 1 ^score (call judge <n>)))
        (p pick (item ^n <n> ^score > 80) -(best)
           -->
           (make best ^n <n>))
    ";
    let program = Arc::new(Program::parse(src).unwrap());
    let mut e = Engine::new(program);
    e.register_external(
        "judge",
        Arc::new(|args, eff| {
            eff.cost = 10;
            Some(Value::Int(args[0].as_int().unwrap() * 30))
        }),
    );
    for n in 1..=3 {
        e.make_wme("item", &[("n", n.into())]).unwrap();
    }
    let out = e.run(100);
    assert!(out.quiescent());
    let best = e
        .wm()
        .iter()
        .find(|(_, w)| w.class == ops5::sym("best"))
        .expect("a best item")
        .1
        .get(0)
        .as_int()
        .unwrap();
    assert!(best == 3, "3*30=90 > 80; got {best}");
}

#[test]
fn run_limit_reports_limit_reached() {
    let src = "
        (literalize tick n)
        (p forever (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
    ";
    let mut e = engine(src);
    e.make_wme("tick", &[("n", 0.into())]).unwrap();
    let out = e.run(50);
    assert!(out.limit_reached);
    assert_eq!(out.firings, 50);
    assert!(!out.quiescent());
}

#[test]
fn compute_division_by_zero_is_reported_not_panicking() {
    let src = "
        (literalize a x)
        (p bad (a ^x <x>) --> (modify 1 ^x (compute 1 // <x>)))
    ";
    let mut e = engine(src);
    e.make_wme("a", &[("x", 0.into())]).unwrap();
    let out = e.run(10);
    assert!(out.error.unwrap().contains("division by zero"));
}

#[test]
fn gensym_values_are_unique_and_joinable() {
    let src = "
        (literalize pair tag other)
        (literalize seed n)
        (p spawn (seed ^n <n>)
           -->
           (bind <g>)
           (make pair ^tag <g>)
           (make pair ^tag <g> ^other twin)
           (remove 1))
        (p join (pair ^tag <t> ^other nil) (pair ^tag <t> ^other twin)
           -->
           (modify 1 ^other joined))
    ";
    let mut e = engine(src);
    e.make_wme("seed", &[("n", 1.into())]).unwrap();
    e.make_wme("seed", &[("n", 2.into())]).unwrap();
    let out = e.run(100);
    assert!(out.quiescent());
    let joined = e
        .wm()
        .iter()
        .filter(|(_, w)| w.get(1) == Value::symbol("joined"))
        .count();
    assert_eq!(joined, 2, "each seed's twin pair joins on its own gensym");
}
