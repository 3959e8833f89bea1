//! `Engine::mark` / `Engine::rollback`, case by case: when a mark is
//! declined, what a rollback undoes, what breaks a mark. The property that
//! a rolled-back engine replays like a new one that loaded the base is
//! `reset_then_replay_equals_a_new_engine` in `properties.rs`.

use ops5::{Engine, Program, ReteConfig, Value};
use std::sync::Arc;

/// `a`s alone leave a token under the negated `b`, unblocked, childless and
/// short of the terminal: a base that marks.
const SRC: &str = "
    (literalize a x)
    (literalize b x)
    (literalize c x)
    (literalize done x)
    (p m (a ^x <v>) -(b ^x <v>) (c ^x <v>) --> (make done ^x <v>) (remove 3))";

fn engines() -> [Engine; 2] {
    let program = Arc::new(Program::parse(SRC).unwrap());
    let compiled = Engine::compile(&program).unwrap();
    [ReteConfig::shared(), ReteConfig::unshared()]
        .map(|config| Engine::with_compiled_config(Arc::clone(&program), compiled.clone(), config))
}

fn make(e: &mut Engine, class: &str, x: i64) -> ops5::WmeId {
    e.make_wme(class, &[("x", Value::Int(x))]).unwrap()
}

#[test]
fn a_mark_needs_an_empty_conflict_set_and_a_backend_that_marks() {
    for mut e in engines() {
        make(&mut e, "a", 1);
        assert!(e.mark(), "nothing is satisfied yet");
        make(&mut e, "c", 1);
        assert_eq!(e.conflict_len(), 1);
        assert!(!e.mark(), "an instantiation is waiting to fire");
        assert!(
            !e.rollback(),
            "and the declined mark dropped the one before"
        );
        assert_eq!(e.run(10).firings, 1);
        assert!(e.mark(), "quiescent again, the fired token gone with its c");
    }
    let mut naive = Engine::new_naive(Arc::new(Program::parse(SRC).unwrap()));
    make(&mut naive, "a", 1);
    assert!(!naive.mark() && !naive.rollback());
}

#[test]
fn a_base_token_blocked_by_a_task_wme_is_unblocked_by_the_rollback() {
    for (mut e, mut fresh) in engines().into_iter().zip(engines()) {
        for e in [&mut e, &mut fresh] {
            e.enable_cycle_log();
            make(e, "a", 1);
            make(e, "a", 2);
        }
        assert!(e.mark());
        // The task: `b 1` blocks the base's token for `a 1`, `c 2` hangs a
        // child on the one for `a 2` and fires.
        make(&mut e, "b", 1);
        make(&mut e, "c", 1);
        assert_eq!(e.conflict_len(), 0, "blocked");
        make(&mut e, "c", 2);
        assert_eq!(e.run(10).firings, 1);
        assert!(e.rollback());
        assert_eq!((e.wm().len(), e.conflict_len()), (2, 0));
        assert_eq!(e.work(), fresh.work());
        assert_eq!(e.net_stats(), fresh.net_stats());
        // The next task finds `a 1` unblocked, on ids and tags that follow
        // the base's, and costs what it costs a new engine.
        for e in [&mut e, &mut fresh] {
            assert_eq!(make(e, "c", 1), ops5::WmeId(2));
            assert_eq!(e.run(10).firings, 1);
        }
        assert_eq!(e.work(), fresh.work());
        assert_eq!(e.net_stats(), fresh.net_stats());
        assert_eq!(e.take_cycle_log(), fresh.take_cycle_log());
        let wm =
            |e: &Engine| -> Vec<String> { e.wm().iter().map(|(_, w)| w.to_string()).collect() };
        assert_eq!(wm(&e), wm(&fresh));
    }
}

#[test]
fn removing_a_base_wme_breaks_the_mark() {
    for mut e in engines() {
        let a = make(&mut e, "a", 1);
        assert!(e.mark());
        make(&mut e, "b", 1);
        e.remove_wme_id(a);
        assert!(!e.rollback(), "the base is no longer whole");
        // What the caller does then: start over.
        e.reset();
        make(&mut e, "a", 1);
        assert!(e.mark());
        make(&mut e, "b", 1);
        assert!(e.rollback() && e.wm().len() == 1);
    }
}

#[test]
fn a_snapshot_reads_a_marked_engine_only() {
    for mut e in engines() {
        make(&mut e, "a", 1);
        make(&mut e, "a", 2);
        assert!(e.mark());
        make(&mut e, "b", 2);
        make(&mut e, "c", 1);
        make(&mut e, "c", 2);
        let snap = e.snapshot();
        assert_eq!(e.snapshot(), snap);
        assert!(e.rollback() && e.wm().len() == 2);
    }
}
