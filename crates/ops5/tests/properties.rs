//! Property-based differential tests: the incremental Rete must agree with
//! the naive full re-match after any sequence of WM additions and removals,
//! and the full engine must behave identically on both backends.

use ops5::conflict::{ConflictSet, Instantiation};
use ops5::matcher::{MatchEvent, MatchEvents, SlotCursor};
use ops5::naive::{canonical, match_all};
use ops5::rete::{CompiledProduction, Network, Rete, ReteConfig};
use ops5::wme::{WmStore, Wme};
use ops5::{sym, Engine, Program, Value, WmeId};
use proptest::prelude::*;
use std::sync::Arc;

/// Programs exercising joins, predicates, disjunctions, intra-element
/// consistency, and negation.
const PROGRAMS: &[&str] = &[
    // 1: simple two-way join
    "(literalize a x y)
     (literalize b x y)
     (p j (a ^x <v>) (b ^x <v>) --> (halt))",
    // 2: three-way join with predicate test
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p t (a ^x <v>) (b ^x <v> ^y > <v>) (c ^y <> <v>) --> (halt))",
    // 3: negation with join variable
    "(literalize a x y)
     (literalize b x y)
     (p n (a ^x <v>) -(b ^x <v>) --> (halt))",
    // 4: two negations and an intra-element test
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p m (a ^x <v> ^y <v>) -(b ^y <v>) -(c ^x <v>) --> (halt))",
    // 5: disjunction and same-type test
    "(literalize a x y)
     (literalize b x y)
     (p d (a ^x << 1 2 water >>) (b ^y <=> 0) --> (halt))",
    // 6: negation sandwiched between positives
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p s (a ^x <v>) -(b ^x <v> ^y > 1) (c ^y <v>) --> (halt))",
];

/// A WM mutation.
#[derive(Clone, Debug)]
enum Op {
    Add { class: u8, x: i8, y: i8 },
    Remove(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..3, -2i8..3, -2i8..3).prop_map(|(class, x, y)| Op::Add { class, x, y }),
        1 => (0u8..64).prop_map(Op::Remove),
    ]
}

/// A conflict-set key.
type Key = (u32, Vec<WmeId>);

/// The keys a conflict set holds, sorted.
fn keys(cs: &ConflictSet) -> Vec<Key> {
    canonical(&cs.iter().map(Instantiation::from).collect::<Vec<_>>())
}

/// A bare Rete on a network of its own.
fn rete_of(compiled: &[CompiledProduction], program: &Program, config: ReteConfig) -> Rete {
    Rete::instantiate(Arc::new(Network::build(compiled, program, config)))
}

/// A bare Rete and the conflict set its drains feed.
struct Fed {
    rete: Rete,
    cs: ConflictSet,
}

impl Fed {
    fn new(rete: Rete) -> Fed {
        Fed {
            rete,
            cs: ConflictSet::new(),
        }
    }

    /// Drains the network into the set; the events, for comparing streams.
    fn drain(&mut self, wm: &WmStore) -> MatchEvents {
        let events = self.rete.drain_events(wm);
        self.cs.apply(&events);
        events
    }
}

/// Applies `op` to `wm` and every network of `nets`; false when the op was
/// a no-op (an undeclared class, nothing left to remove).
fn apply_op(
    op: &Op,
    program: &Program,
    wm: &mut WmStore,
    live: &mut Vec<WmeId>,
    nets: &mut [&mut Fed],
) -> bool {
    let classes = [sym("a"), sym("b"), sym("c")];
    match *op {
        Op::Add { class, x, y } => {
            let cls = classes[class as usize % 3];
            if program.class(cls).is_none() {
                return false;
            }
            // Ids are dense and never reused: one tag per WME ever added.
            let mut w = Wme::new(cls, 2, wm.raw_slots().len() as u64 + 1);
            // Mix types: negative x becomes a symbol to exercise
            // symbol/number comparisons.
            w.set(
                0,
                if x < 0 {
                    Value::symbol("water")
                } else {
                    Value::Int(x as i64)
                },
            );
            w.set(1, Value::Int(y as i64));
            let id = wm.add(w);
            live.push(id);
            nets.iter_mut().for_each(|n| n.rete.add_wme(id, wm));
        }
        Op::Remove(k) => {
            if live.is_empty() {
                return false;
            }
            let id = live.swap_remove(k as usize % live.len());
            nets.iter_mut().for_each(|n| n.rete.remove_wme(id, wm));
            wm.remove(id);
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the number of WM changes between two drains, a drain
    /// leaves the conflict set equal to a full re-match of the WM as it
    /// then is, and the batch is invisible in the work: the network drained
    /// after every change does the same match units.
    #[test]
    fn rete_equals_naive_rematch(
        prog_idx in 0usize..PROGRAMS.len(),
        ops in prop::collection::vec(op_strategy(), 1..60),
        drain_every in 1usize..9,
    ) {
        let program = Program::parse(PROGRAMS[prog_idx]).unwrap();
        let compiled = Engine::compile(&program).unwrap();
        let mut batched = Fed::new(rete_of(&compiled, &program, ReteConfig::default()));
        let mut each = Fed::new(rete_of(&compiled, &program, ReteConfig::default()));
        let mut wm = WmStore::new();
        let mut live: Vec<WmeId> = Vec::new();

        let last = ops.len() - 1;
        for (n, op) in ops.iter().enumerate() {
            if !apply_op(op, &program, &mut wm, &mut live, &mut [&mut batched, &mut each]) {
                continue;
            }
            each.drain(&wm);
            if (n + 1) % drain_every == 0 || n == last {
                batched.drain(&wm);
                let mut work = 0;
                let expected = canonical(&match_all(&program, &compiled, &wm, &mut work));
                prop_assert_eq!(&keys(&batched.cs), &expected);
                prop_assert_eq!(&keys(&each.cs), &expected);
                prop_assert_eq!(batched.rete.work, each.rete.work);
            }
        }
    }

    #[test]
    fn naive_backend_engine_equals_rete_engine(
        seeds in prop::collection::vec((0u8..3, 0i8..4), 1..12),
    ) {
        // A program that fires, modifies, and removes — both backends must
        // produce identical firing sequences and final WM.
        let src = "
            (literalize item kind count)
            (literalize done kind)
            (p consume (item ^kind <k> ^count { <n> > 0 })
               -->
               (modify 1 ^count (compute <n> - 1)))
            (p finish (item ^kind <k> ^count 0) -(done ^kind <k>)
               -->
               (make done ^kind <k>)
               (remove 1))
        ";
        let program = Arc::new(Program::parse(src).unwrap());
        let mut fast = Engine::new(Arc::clone(&program));
        let mut slow = Engine::new_naive(Arc::clone(&program));
        for &(k, n) in &seeds {
            let kind = Value::symbol(&format!("k{k}"));
            fast.make_wme("item", &[("kind", kind), ("count", (n as i64).into())]).unwrap();
            slow.make_wme("item", &[("kind", kind), ("count", (n as i64).into())]).unwrap();
        }
        let fo = fast.run(10_000);
        let so = slow.run(10_000);
        prop_assert_eq!(fo.firings, so.firings);
        prop_assert!(fo.quiescent() && so.quiescent());

        let mut fwm: Vec<String> = fast.wm().iter().map(|(_, w)| w.to_string()).collect();
        let mut swm: Vec<String> = slow.wm().iter().map(|(_, w)| w.to_string()).collect();
        fwm.sort();
        swm.sort();
        prop_assert_eq!(fwm, swm);
    }

    #[test]
    fn engine_is_deterministic(
        seeds in prop::collection::vec((0u8..4, 0i8..5), 1..10),
    ) {
        let src = "
            (literalize n v)
            (literalize sum v)
            (p fold (n ^v <a>) (sum ^v <s>)
               -->
               (modify 2 ^v (compute <s> + <a>))
               (remove 1))
        ";
        let program = Arc::new(Program::parse(src).unwrap());
        let run = || {
            let mut e = Engine::new(Arc::clone(&program));
            e.make_wme("sum", &[("v", 0.into())]).unwrap();
            for &(_, n) in &seeds {
                e.make_wme("n", &[("v", (n as i64).into())]).unwrap();
            }
            let out = e.run(10_000);
            let mut wm: Vec<String> = e.wm().iter().map(|(_, w)| w.to_string()).collect();
            wm.sort();
            (out.firings, wm, e.work())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        // The fold must actually sum all items.
        prop_assert_eq!(a.0 as usize, seeds.len());
    }
}

/// Multi-production programs whose condition chains overlap — the shared
/// network folds the common prefixes, so these exercise trie terminals at
/// interior nodes, shared join work, and per-production divergence.
const SHARING_PROGRAMS: &[&str] = &[
    // 1: three productions over one (a)(b) prefix, diverging on c
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p p1 (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))
     (p p2 (a ^x <v>) (b ^x <v>) (c ^x > <v>) --> (halt))
     (p p3 (a ^x <v>) (b ^x <v>) --> (halt))",
    // 2: shared prefix with a negation split
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p n1 (a ^x <v>) -(b ^x <v>) --> (halt))
     (p n2 (a ^x <v>) -(b ^x <v>) (c ^y <v>) --> (halt))
     (p n3 (a ^x <v>) (b ^x <v>) --> (halt))",
    // 3: identical chains (full sharing) plus an unrelated production
    "(literalize a x y)
     (literalize b x y)
     (p t1 (a ^x <v> ^y <w>) (b ^x <w>) --> (halt))
     (p t2 (a ^x <v> ^y <w>) (b ^x <w>) --> (halt))
     (p t3 (b ^y < 2) --> (halt))",
];

/// Canonical multiset form of one operation's event batch. Order *within*
/// a batch is unspecified between the shared (trie traversal) and unshared
/// (per-chain traversal) networks, so batches compare as sorted multisets;
/// the conflict set's resolution order is insertion-order independent, so
/// firing behaviour is unaffected (the engine property below proves it).
/// Names are left out: each network names by its own token slots.
fn canon_events(events: &MatchEvents) -> Vec<(u8, u32, Vec<WmeId>, Vec<u64>)> {
    let mut v: Vec<_> = events
        .iter()
        .map(|e| match e {
            MatchEvent::Insert { inst: i, .. } => {
                (0u8, i.production, i.wmes.to_vec(), i.time_tags.to_vec())
            }
            MatchEvent::Retract {
                production, wmes, ..
            } => (1u8, production, wmes.to_vec(), Vec::new()),
        })
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole's differential guarantee: the shared + indexed network
    /// and the historical one-chain-per-production network produce the same
    /// match — identical event multisets after every single WM operation —
    /// while the shared network does no more work than the unshared one
    /// (modulo the bounded probe overhead: a hash probe whose bucket turns
    /// out to be the entire population saves nothing over the scan it
    /// replaced yet still costs `INDEX_PROBE`).
    #[test]
    fn shared_and_unshared_networks_agree(
        prog_idx in 0usize..(PROGRAMS.len() + SHARING_PROGRAMS.len()),
        ops in prop::collection::vec(op_strategy(), 1..60),
        drain_every in 1usize..9,
    ) {
        let src = if prog_idx < PROGRAMS.len() {
            PROGRAMS[prog_idx]
        } else {
            SHARING_PROGRAMS[prog_idx - PROGRAMS.len()]
        };
        let program = Program::parse(src).unwrap();
        let compiled = Engine::compile(&program).unwrap();
        let fed = |config| Fed::new(rete_of(&compiled, &program, config));
        // One pair drained after every operation, one every `drain_every`.
        let (mut shared, mut unshared) = (fed(ReteConfig::shared()), fed(ReteConfig::unshared()));
        let (mut shared_k, mut unshared_k) = (fed(ReteConfig::shared()), fed(ReteConfig::unshared()));
        let mut wm = WmStore::new();
        let mut live: Vec<WmeId> = Vec::new();

        let last = ops.len() - 1;
        for (n, op) in ops.iter().enumerate() {
            let nets = &mut [&mut shared, &mut unshared, &mut shared_k, &mut unshared_k];
            if !apply_op(op, &program, &mut wm, &mut live, nets) {
                continue;
            }
            prop_assert_eq!(
                canon_events(&shared.drain(&wm)),
                canon_events(&unshared.drain(&wm))
            );
            if (n + 1) % drain_every == 0 || n == last {
                // Netting makes a batch's stream differ from the per-change
                // streams it replaces, the same way in both networks; the
                // state it leaves does not differ.
                prop_assert_eq!(
                    canon_events(&shared_k.drain(&wm)),
                    canon_events(&unshared_k.drain(&wm))
                );
                let mut work = 0;
                let expected = canonical(&match_all(&program, &compiled, &wm, &mut work));
                for net in [&shared, &unshared, &shared_k, &unshared_k] {
                    prop_assert_eq!(&keys(&net.cs), &expected);
                }
                prop_assert_eq!(shared_k.rete.work, shared.rete.work);
                prop_assert_eq!(unshared_k.rete.work, unshared.rete.work);
            }
        }
        let (shared, unshared) = (shared.rete, unshared.rete);
        let slack = ops5::instrument::cost::INDEX_PROBE * shared.net_stats().index_probes;
        prop_assert!(
            shared.work.match_units <= unshared.work.match_units + slack,
            "shared {} > unshared {} + probe slack {}",
            shared.work.match_units, unshared.work.match_units, slack
        );
    }

    /// Full-engine differential: identical firing sequences (which
    /// production fired at every cycle), identical final WM, and identical
    /// serial-side work under both LEX and MEA, whichever network runs the
    /// match. Only `match_units` may differ — and only downward (plus the
    /// bounded probe slack).
    #[test]
    fn shared_and_unshared_engines_fire_identically(
        prog_idx in 0usize..SHARING_PROGRAMS.len(),
        strategy_mea in (0u8..2).prop_map(|b| b == 1),
        seeds in prop::collection::vec((0u8..3, 0i8..4, 0i8..4), 1..10),
    ) {
        let src = SHARING_PROGRAMS[prog_idx].replace("(halt)", "(remove 1)");
        let program = Arc::new(Program::parse(&src).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let strategy = if strategy_mea { ops5::Strategy::Mea } else { ops5::Strategy::Lex };
        let classes = ["a", "b", "c"];
        let run = |config: ReteConfig| {
            let mut e = Engine::with_compiled_config(
                Arc::clone(&program), Arc::clone(&compiled), config);
            e.set_strategy(strategy);
            e.enable_cycle_log();
            for &(c, x, y) in &seeds {
                let cls = classes[c as usize % 3];
                if program.class(sym(cls)).is_none() { continue; }
                e.make_wme(
                    cls,
                    &[("x", (x as i64).into()), ("y", (y as i64).into())],
                ).unwrap();
            }
            let out = e.run(10_000);
            let firing_seq: Vec<u32> = e.take_cycle_log().iter().map(|c| c.production).collect();
            let mut wm: Vec<String> = e.wm().iter().map(|(_, w)| w.to_string()).collect();
            wm.sort();
            (out.firings, firing_seq, wm, e.work(), e.net_stats())
        };
        let s = run(ReteConfig::shared());
        let u = run(ReteConfig::unshared());
        prop_assert_eq!(s.0, u.0, "firing counts diverge");
        prop_assert_eq!(&s.1, &u.1, "firing sequences diverge under {:?}", strategy);
        prop_assert_eq!(&s.2, &u.2, "final WM diverges");
        prop_assert_eq!(s.3.resolve_units, u.3.resolve_units);
        prop_assert_eq!(s.3.act_units, u.3.act_units);
        prop_assert_eq!(s.3.external_units, u.3.external_units);
        let slack = ops5::instrument::cost::INDEX_PROBE * s.4.index_probes;
        prop_assert!(s.3.match_units <= u.3.match_units + slack);
    }
}

/// Non-halting programs (they run to quiescence): firing work, modifies,
/// removes, makes, negation.
const QUIESCENT_PROGRAMS: &[&str] = &[
    "(literalize item kind count)
     (literalize done kind)
     (p consume (item ^kind <k> ^count { <n> > 0 })
        -->
        (modify 1 ^count (compute <n> - 1)))
     (p finish (item ^kind <k> ^count 0) -(done ^kind <k>)
        -->
        (make done ^kind <k>)
        (remove 1))",
    "(literalize item kind count)
     (literalize sum v)
     (p fold (item ^kind <k> ^count <a>) (sum ^v <s>)
        -->
        (modify 2 ^v (compute <s> + <a>))
        (remove 1))",
];

/// At realistic working-memory sizes the incremental Rete does far less
/// match work than naive re-matching — the substance of the paper's 10–20×
/// "port to C + ParaOPS5" baseline speed-up (§6).
#[test]
fn rete_beats_naive_at_scale() {
    let src = "
        (literalize item kind count)
        (literalize done kind)
        (p consume (item ^kind <k> ^count { <n> > 0 })
           -->
           (modify 1 ^count (compute <n> - 1)))
        (p finish (item ^kind <k> ^count 0) -(done ^kind <k>)
           -->
           (make done ^kind <k>)
           (remove 1))
    ";
    let program = Arc::new(Program::parse(src).unwrap());
    let mut fast = Engine::new(Arc::clone(&program));
    let mut slow = Engine::new_naive(Arc::clone(&program));
    for e in [&mut fast, &mut slow] {
        for i in 0..60 {
            let kind = Value::symbol(&format!("k{i}"));
            e.make_wme("item", &[("kind", kind), ("count", 8.into())])
                .unwrap();
        }
    }
    let fo = fast.run(100_000);
    let so = slow.run(100_000);
    assert_eq!(fo.firings, so.firings);
    let ratio = slow.work().match_units as f64 / fast.work().match_units as f64;
    assert!(
        ratio > 5.0,
        "expected a large Rete advantage at scale, got {ratio:.2}x"
    );
}

/// A program that touches everything `Engine::reset` must rewind beyond
/// the network: a named external counter (`next-id`), `genatom`, `write`
/// output and `halt`.
const STATEFUL_PROGRAM: &str = "
    (literalize item kind count)
    (literalize tagged id name)
    (p tag (item ^kind <k> ^count { <n> > 0 })
       -->
       (make tagged ^id (call next-id) ^name (call genatom))
       (write |tagged| <k> (crlf))
       (remove 1))
    (p stop (item ^kind <k> ^count 0) --> (halt))";

/// Blockers come and go: `unblock` removes the WMEs that block `lone`'s
/// negated element, so a stale blocker→token entry would be consulted.
const BLOCKER_PROGRAM: &str = "
    (literalize a x y)
    (literalize b x y)
    (p unblock (a ^x <v>) (b ^x <v> ^y > 0) --> (remove 2))
    (p lone (a ^x <v>) -(b ^x <v>) --> (remove 1))";

/// What a mark has to survive: `a`s alone leave tokens under `m1`'s negated
/// element, unblocked and childless — a later `b` blocks them, a later `c`
/// hangs children on them, and the rollback has to undo both; `m2` removes
/// a `b`, which may be one the base made (the mark breaks); a base holding
/// a matching `a` and `c` fires `m1` before it is marked.
const MARK_PROGRAM: &str = "
    (literalize a x y)
    (literalize b x y)
    (literalize c x y)
    (p m1 (a ^x <v>) -(b ^x <v>) (c ^x <v>) --> (remove 3))
    (p m2 (a ^x <v>) (b ^x <v>) (c ^y <v>) --> (remove 2))";

/// One engine-level WM mutation of a replay script.
#[derive(Clone, Debug)]
enum ScriptOp {
    Make { class: u8, x: i8, y: i8 },
    Remove(u8),
}

fn script_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<ScriptOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0u8..3, 0i8..4, 0i8..4).prop_map(|(class, x, y)| ScriptOp::Make { class, x, y }),
            1 => (0u8..32).prop_map(ScriptOp::Remove),
        ],
        len,
    )
}

/// The classes a script addresses: whatever the program declares, by name,
/// each with its attributes.
fn script_classes(program: &Program) -> Vec<(String, Vec<String>)> {
    let mut classes: Vec<(String, Vec<String>)> = program
        .classes()
        .map(|c| {
            (
                c.name.to_string(),
                c.attrs.iter().map(|a| a.to_string()).collect(),
            )
        })
        .collect();
    classes.sort();
    classes
}

/// Plays `script` through the engine's public WM entry points, setting the
/// first two attributes of each made WME.
fn load_script(e: &mut Engine, classes: &[(String, Vec<String>)], script: &[ScriptOp]) {
    let mut made: Vec<WmeId> = Vec::new();
    for op in script {
        match *op {
            ScriptOp::Make { class, x, y } => {
                let (name, attrs) = &classes[class as usize % classes.len()];
                let vals = [Value::Int(x as i64), Value::Int(y as i64)];
                let sets: Vec<(&str, Value)> = attrs.iter().map(String::as_str).zip(vals).collect();
                made.push(e.make_wme(name, &sets).unwrap());
            }
            ScriptOp::Remove(k) => {
                if !made.is_empty() {
                    let id = made.swap_remove(k as usize % made.len());
                    e.remove_wme_id(id);
                }
            }
        }
    }
}

/// Everything a run can show: firing sequence and per-cycle costs (the
/// cycle log), final WM with ids and time tags, merged work, network
/// statistics, output, how the run ended, what is left in the conflict
/// set.
type Observed = (
    Vec<ops5::CycleStats>,
    Vec<(WmeId, String)>,
    ops5::WorkCounters,
    ops5::NetStats,
    String,
    ops5::RunOutcome,
    usize,
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The contract task-engine reuse rests on: after `reset()`, replaying
    /// a script on the used engine is indistinguishable from replaying it
    /// on a new one — whatever the engine did before (any program, any
    /// first script, stopped anywhere from "never ran" to quiescence, with
    /// or without profiling), on the shared and the unshared network and
    /// on the naive matcher.
    ///
    /// And the contract working-memory distribution rests on: with a *base*
    /// script loaded and run to quiescence first, `mark()` … anything …
    /// `rollback()` leaves the engine where a new one that loaded and ran
    /// the base stands, and replaying on it is indistinguishable from
    /// replaying there — the base's cycles, work and statistics included.
    /// Where the mark is declined (the naive matcher; a base that leaves a
    /// fired instantiation's token alive) or broken (a firing removed a
    /// base WME), the engine says so and reset + base does instead.
    #[test]
    fn reset_then_replay_equals_a_new_engine(
        prog_idx in 0usize..(SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() + 3),
        backend in 0u8..3,
        first in script_strategy(1..14),
        first_steps in 0u64..12,
        profiled_first in (0u8..2).prop_map(|b| b == 1),
        second in script_strategy(1..14),
        base in script_strategy(0..8),
    ) {
        let src = if prog_idx < SHARING_PROGRAMS.len() {
            SHARING_PROGRAMS[prog_idx].replace("(halt)", "(remove 1)")
        } else if prog_idx < SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() {
            QUIESCENT_PROGRAMS[prog_idx - SHARING_PROGRAMS.len()].to_string()
        } else if prog_idx == SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() {
            STATEFUL_PROGRAM.to_string()
        } else if prog_idx == SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() + 1 {
            BLOCKER_PROGRAM.to_string()
        } else {
            MARK_PROGRAM.to_string()
        };
        let program = Arc::new(Program::parse(&src).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let build = || {
            let mut e = match backend {
                0 => Engine::with_compiled_config(
                    Arc::clone(&program), Arc::clone(&compiled), ReteConfig::shared()),
                1 => Engine::with_compiled_config(
                    Arc::clone(&program), Arc::clone(&compiled), ReteConfig::unshared()),
                _ => Engine::new_naive(Arc::clone(&program)),
            };
            let next = e.external_counter("next-id", 100);
            e.register_external(
                "next-id",
                Arc::new(move |_, eff: &mut ops5::Effects| {
                    eff.cost = 7;
                    Some(Value::Int(next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)))
                }),
            );
            e
        };
        let classes = script_classes(&program);
        let load = |e: &mut Engine, script: &[ScriptOp]| load_script(e, &classes, script);
        let wm_of = |e: &Engine| -> Vec<(WmeId, String)> {
            e.wm().iter().map(|(id, w)| (id, w.to_string())).collect()
        };
        // The second script on an engine that is logging its cycles.
        let replay_logging = |e: &mut Engine| -> Observed {
            load(e, &second);
            let out = e.run(200);
            (
                e.take_cycle_log(),
                wm_of(e),
                e.work(),
                e.net_stats(),
                e.output.clone(),
                out,
                e.conflict_len(),
            )
        };
        let replay = |e: &mut Engine| -> Observed {
            e.enable_cycle_log();
            replay_logging(e)
        };

        let mut fresh = build();
        let want = replay(&mut fresh);
        prop_assert!(want.5.error.is_none(), "{:?}", want.5);

        let mut used = build();
        if profiled_first {
            used.enable_profile();
        }
        used.enable_cycle_log();
        load(&mut used, &first);
        used.run(first_steps);
        used.reset();
        prop_assert_eq!(used.wm().len(), 0);
        prop_assert_eq!(used.conflict_len(), 0);
        prop_assert_eq!(used.work(), ops5::WorkCounters::default());
        prop_assert!(used.take_profile().is_none(), "profiling is detached");
        prop_assert_eq!(&replay(&mut used), &want);

        // And again: reuse is not a one-shot.
        used.reset();
        prop_assert_eq!(&replay(&mut used), &want);

        // Under a mark. The reference loads and runs the base itself.
        let load_base = |e: &mut Engine| {
            e.enable_cycle_log();
            load(e, &base);
            e.run(200)
        };
        let mut fresh = build();
        let based = load_base(&mut fresh);
        prop_assert!(based.error.is_none(), "{:?}", based);
        let at_mark = (wm_of(&fresh), fresh.work(), fresh.net_stats(), fresh.output.clone());
        let want = replay_logging(&mut fresh);

        used.reset();
        load_base(&mut used);
        let marked = used.mark();
        prop_assert!(
            marked || backend == 2 || based.halted || used.conflict_len() > 0 || based.firings > 0,
            "a Rete that is quiescent and has fired nothing marks"
        );
        for round in 0..2 {
            if profiled_first && round == 0 {
                used.enable_profile();
            }
            load(&mut used, &first);
            used.run(first_steps);
            if used.rollback() {
                prop_assert!(marked);
                let now = (wm_of(&used), used.work(), used.net_stats(), used.output.clone());
                prop_assert_eq!(&now, &at_mark);
                prop_assert_eq!(used.conflict_len(), 0);
                prop_assert!(used.take_profile().is_none(), "profiling is detached");
            } else {
                prop_assert!(!used.rollback(), "a declined rollback drops the mark");
                used.reset();
                load_base(&mut used);
                used.mark();
            }
            let got = replay_logging(&mut used);
            prop_assert_eq!(
                &got, &want,
                "round {} (program {}, backend {}, marked {}):\n got {:?}\nwant {:?}\nbase {:?}\nfirst {:?} x{}\nsecond {:?}",
                round, prog_idx, backend, marked, got, want, base, first, first_steps, second
            );
        }
    }
}

/// What the once-per-firing conflict feed has to be invisible to: RHSs of
/// several WME changes over negated elements. `bump`'s `modify` removes a
/// `b` — un-blocking `lone` for every `a` of that `x` — and adds it back,
/// blocking them again: with `lone` unfired the pair nets, with `lone`
/// fired the per-change feed used to bring the instantiation back for a
/// moment; `pair` modifies two elements of its own match; `stop` halts in
/// the middle of its RHS and `bad` fails in the middle of its own, each
/// after a change that matters and before another.
const FEED_PROGRAM: &str = "
    (literalize a x y)
    (literalize b x y)
    (literalize c x y)
    (p bump (b ^x <v> ^y { <n> < 3 }) --> (modify 1 ^y (compute <n> + 1)))
    (p lone (a ^x <v>) -(b ^x <v>) --> (make c ^x <v> ^y 0))
    (p pair (a ^x <v> ^y { <w> < 3 }) (c ^x <v> ^y 0)
       -->
       (modify 2 ^y 1)
       (modify 1 ^y (compute <w> + 1)))
    (p swap (a ^x <v> ^y 2) -(c ^y 3) --> (make c ^x <v> ^y 3) (remove 1) (make b ^x <v> ^y 3))
    (p stop (c ^x 3 ^y 1) --> (make b ^x 3 ^y 0) (halt) (remove 1))
    (p bad (c ^x 2 ^y 1)
       -->
       (modify 1 ^y 2)
       (make a ^x 2 ^y 0)
       (call no-such-fn)
       (make a ^x 0 ^y 0))";

/// The per-change conflict feed, as the engine did it before it fed once
/// per firing: the set a bare network leaves when it is drained after
/// every WME change, and the part of it the engine has been handed.
#[derive(Default)]
struct PerChangeFeed {
    set: ConflictSet,
    /// Keys of `set` as of the engine's last drain, less what fired since,
    /// each with the name it was handed over under. A fired key's name is
    /// never retracted, so never given back.
    handed: std::collections::BTreeMap<Key, u32>,
    names: SlotCursor,
}

impl PerChangeFeed {
    /// Mirrors the engine's resolve step, which the matcher cannot see.
    fn select(&mut self, strategy: ops5::Strategy) {
        let mut wmes = Vec::new();
        if let Some(production) = self.set.select(strategy, &mut wmes) {
            self.handed.remove(&(production, wmes));
        }
    }
}

/// A match backend that keeps a [`PerChangeFeed`] and, at the engine's
/// drain, hands over whatever turns the engine's set into it.
struct PerChangeMatcher {
    rete: Rete,
    feed: Arc<std::sync::Mutex<PerChangeFeed>>,
}

impl PerChangeMatcher {
    fn feed_change(&mut self, wm: &WmStore) {
        let events = self.rete.drain_events(wm);
        self.feed.lock().unwrap().set.apply(&events);
    }
}

impl ops5::matcher::Matcher for PerChangeMatcher {
    fn add_wme(&mut self, id: WmeId, wm: &WmStore) {
        self.rete.add_wme(id, wm);
        self.feed_change(wm);
    }
    fn remove_wme(&mut self, id: WmeId, wm: &WmStore) {
        self.rete.remove_wme(id, wm);
        self.feed_change(wm);
    }
    fn drain_events(&mut self, _wm: &WmStore, out: &mut MatchEvents) {
        let PerChangeFeed { set, handed, names } = &mut *self.feed.lock().unwrap();
        let now: std::collections::BTreeMap<Key, _> = set
            .iter()
            .map(|i| ((i.production, i.wmes.to_vec()), i))
            .collect();
        handed.retain(|(production, wmes), &mut name| {
            let kept = now.contains_key(&(*production, wmes.clone()));
            if !kept {
                out.push_retract(name, *production, wmes);
                names.give(name);
            }
            kept
        });
        for (key, i) in now {
            handed.entry(key).or_insert_with(|| {
                let name = names.take();
                out.push_insert(name, i);
                name
            });
        }
    }
    fn take_chunks(&mut self) -> u32 {
        self.rete.take_chunks()
    }
    fn work(&self) -> ops5::WorkCounters {
        self.rete.work
    }
    fn reset(&mut self) {
        self.rete.reset();
        *self.feed.lock().unwrap() = PerChangeFeed::default();
    }
    fn net_stats(&self) -> ops5::NetStats {
        self.rete.net_stats()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine feeds its conflict set once per firing, from a network
    /// that nets an RHS's match events first. Held against the feed it
    /// replaced — the same engine over [`PerChangeMatcher`] — nothing a run
    /// can show differs after any firing: which production fired (or how
    /// the firing failed), the merged work, the snapshot bytes (WM, conflict
    /// keys, counters, output), and at the end the cycle log and the WM
    /// with its time tags — under LEX and MEA, through a `(halt)` in the
    /// middle of an RHS and an RHS that errors half-way.
    #[test]
    fn one_feed_per_firing_equals_one_per_change(
        // Every other case runs FEED_PROGRAM.
        prog_idx in 0usize..2 * (SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() + 1),
        strategy_mea in (0u8..2).prop_map(|b| b == 1),
        script in script_strategy(4..24),
        steps in 1usize..48,
    ) {
        let src = if prog_idx < SHARING_PROGRAMS.len() {
            SHARING_PROGRAMS[prog_idx].replace("(halt)", "(remove 1)")
        } else if prog_idx < SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() {
            QUIESCENT_PROGRAMS[prog_idx - SHARING_PROGRAMS.len()].to_string()
        } else if prog_idx == SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() {
            BLOCKER_PROGRAM.to_string()
        } else {
            FEED_PROGRAM.to_string()
        };
        let program = Arc::new(Program::parse(&src).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let strategy = if strategy_mea { ops5::Strategy::Mea } else { ops5::Strategy::Lex };
        let classes = script_classes(&program);

        let feed = Arc::new(std::sync::Mutex::new(PerChangeFeed::default()));
        let reference = PerChangeMatcher {
            rete: rete_of(&compiled, &program, ReteConfig::default()),
            feed: Arc::clone(&feed),
        };
        let mut per_firing = Engine::with_compiled(Arc::clone(&program), Arc::clone(&compiled));
        let mut per_change =
            Engine::with_matcher(Arc::clone(&program), Arc::clone(&compiled), Box::new(reference));
        for e in [&mut per_firing, &mut per_change] {
            e.set_strategy(strategy);
            e.enable_cycle_log();
            load_script(e, &classes, &script);
        }
        prop_assert_eq!(per_firing.snapshot(), per_change.snapshot(), "after the load");

        for step in 0..steps {
            if !per_change.halted() {
                feed.lock().unwrap().select(strategy);
            }
            let fired = per_firing.step().map_err(|e| e.to_string());
            prop_assert_eq!(&fired, &per_change.step().map_err(|e| e.to_string()), "step {}", step);
            prop_assert_eq!(per_firing.work(), per_change.work(), "step {}", step);
            let image = per_firing.image();
            prop_assert_eq!(image.encode(), per_change.snapshot(), "step {}", step);
            // And the set both engines hold is the per-change set itself,
            // failed firings included.
            let held = image.conflict;
            let held: Vec<Key> = held.into_iter().map(|(p, w)| (p, w.into_vec())).collect();
            prop_assert_eq!(held, keys(&feed.lock().unwrap().set), "step {}", step);
            if fired == Ok(None) {
                break;
            }
        }
        prop_assert_eq!(per_firing.take_cycle_log(), per_change.take_cycle_log());
        prop_assert_eq!(per_firing.halted(), per_change.halted());
        let wm = |e: &Engine| -> Vec<(WmeId, Wme)> {
            e.wm().iter().map(|(id, w)| (id, w.clone())).collect()
        };
        prop_assert_eq!(wm(&per_firing), wm(&per_change));
        // Same emissions either way; only the batch can net them.
        let (batched, each) = (per_firing.net_stats(), per_change.net_stats());
        prop_assert_eq!(batched.instantiations_emitted, each.instantiations_emitted);
        prop_assert!(batched.instantiations_netted >= each.instantiations_netted);
    }
}

/// One WME can match both condition elements: a Rete that made the pair
/// once per condition element would hold two live instantiations of one
/// key.
const SELF_JOIN_PROGRAM: &str = "
    (literalize a x y)
    (p twice (a ^x <v>) (a ^y <v>) --> (remove 1))";

/// A match backend that holds the one it wraps to the naming contract of
/// `ops5::matcher` at every drain, folding every change into the live
/// `(name, production) → wmes`: a retraction names a live instantiation and
/// carries its key, an insert names none that is live for its production,
/// and no two live instantiations share a key. A reset frees every name; a
/// mark is taken only with nothing live, so a rollback frees them too.
struct Named {
    inner: Box<dyn ops5::matcher::Matcher>,
    live: std::collections::BTreeMap<(u32, u32), Vec<WmeId>>,
}

impl ops5::matcher::Matcher for Named {
    fn add_wme(&mut self, id: WmeId, wm: &WmStore) {
        self.inner.add_wme(id, wm);
    }
    fn remove_wme(&mut self, id: WmeId, wm: &WmStore) {
        self.inner.remove_wme(id, wm);
    }
    fn drain_events(&mut self, wm: &WmStore, out: &mut MatchEvents) {
        let before = out.len();
        self.inner.drain_events(wm, out);
        for e in out.iter().skip(before) {
            match e {
                MatchEvent::Insert { name, inst } => {
                    let key = (inst.production, inst.wmes);
                    assert!(
                        !self.live.iter().any(|(&(_, p), w)| (p, &w[..]) == key),
                        "key {key:?} inserted twice"
                    );
                    let held = self
                        .live
                        .insert((name, inst.production), inst.wmes.to_vec());
                    assert_eq!(held, None, "name {name} inserted while live: {key:?}");
                }
                MatchEvent::Retract {
                    name,
                    production,
                    wmes,
                } => {
                    let held = self.live.remove(&(name, production));
                    assert_eq!(held.as_deref(), Some(wmes), "retraction of {name}");
                }
            }
        }
    }
    fn take_chunks(&mut self) -> u32 {
        self.inner.take_chunks()
    }
    fn work(&self) -> ops5::WorkCounters {
        self.inner.work()
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.live.clear();
    }
    fn mark(&mut self, wm: &WmStore) -> bool {
        let marked = self.inner.mark(wm);
        assert!(
            !marked || self.live.is_empty(),
            "marked with {:?} live",
            self.live
        );
        marked
    }
    fn rollback(&mut self) -> bool {
        let rolled_back = self.inner.rollback();
        if rolled_back {
            self.live.clear();
        }
        rolled_back
    }
    fn net_stats(&self) -> ops5::NetStats {
        self.inner.net_stats()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The naming contract the conflict set finds instantiations by, kept
    /// by every matcher — the Rete on the shared and the unshared network,
    /// the naive matcher and [`PerChangeMatcher`] — through WM changes,
    /// firings (`modify`s among them), resets, marks and rollbacks. The
    /// checks are invisible: the engine fires as over the bare backend.
    #[test]
    fn every_matcher_keeps_the_naming_contract(
        prog_idx in 0usize..(SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() + 4),
        backend in 0u8..4,
        script in script_strategy(1..24),
        schedule in prop::collection::vec(0u8..20, 8..80),
    ) {
        let src = if prog_idx < SHARING_PROGRAMS.len() {
            SHARING_PROGRAMS[prog_idx].replace("(halt)", "(remove 1)")
        } else if prog_idx < SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() {
            QUIESCENT_PROGRAMS[prog_idx - SHARING_PROGRAMS.len()].to_string()
        } else {
            let rest = [STATEFUL_PROGRAM, BLOCKER_PROGRAM, MARK_PROGRAM, SELF_JOIN_PROGRAM];
            rest[prog_idx - SHARING_PROGRAMS.len() - QUIESCENT_PROGRAMS.len()].to_string()
        };
        let program = Arc::new(Program::parse(&src).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let classes = script_classes(&program);
        let matcher = || -> Box<dyn ops5::matcher::Matcher> {
            let (p, c) = (Arc::clone(&program), Arc::clone(&compiled));
            match backend {
                0 => Box::new(rete_of(&compiled, &program, ReteConfig::shared())),
                1 => Box::new(rete_of(&compiled, &program, ReteConfig::unshared())),
                2 => Box::new(ops5::matcher::NaiveMatcher::new(p, c)),
                _ => Box::new(PerChangeMatcher {
                    rete: rete_of(&compiled, &program, ReteConfig::shared()),
                    feed: Arc::default(),
                }),
            }
        };
        let engine = |m: Box<dyn ops5::matcher::Matcher>| {
            let (p, c) = (Arc::clone(&program), Arc::clone(&compiled));
            Driven::new(Engine::with_matcher(p, c, m))
        };
        let named = Named { inner: matcher(), live: Default::default() };
        let mut checked = engine(Box::new(named));
        let mut plain = engine(matcher());
        for (step, &what) in schedule.iter().enumerate() {
            let aside = match what {
                0 => Some(Aside::Reset),
                1 | 2 => Some(Aside::Mark),
                3 | 4 => Some(Aside::Rollback),
                _ => None,
            };
            if let Some(aside) = aside {
                prop_assert_eq!(checked.aside(aside), plain.aside(aside), "step {}", step);
            } else {
                checked.advance(&classes, &script);
                plain.advance(&classes, &script);
            }
            let fired = |d: &Driven| -> Vec<u32> {
                d.e.cycle_log().iter().map(|c| c.production).collect()
            };
            prop_assert_eq!(fired(&checked), fired(&plain), "step {}", step);
            prop_assert_eq!(checked.e.conflict_len(), plain.e.conflict_len(), "step {}", step);
        }
    }
}

/// One engine under a script: the script's next operation per move, then a
/// firing per move once it has run out.
struct Driven {
    e: Engine,
    made: Vec<WmeId>,
    next: usize,
}

/// What happens to the first engine of a group, beside its script.
#[derive(Clone, Copy, Debug)]
enum Aside {
    Reset,
    Mark,
    Rollback,
}

impl Driven {
    fn new(mut e: Engine) -> Driven {
        let next_id = e.external_counter("next-id", 100);
        e.register_external(
            "next-id",
            Arc::new(move |_, eff: &mut ops5::Effects| {
                eff.cost = 7;
                let id = next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Some(Value::Int(id))
            }),
        );
        e.enable_cycle_log();
        Driven {
            e,
            made: Vec::new(),
            next: 0,
        }
    }

    fn advance(&mut self, classes: &[(String, Vec<String>)], script: &[ScriptOp]) {
        match script.get(self.next) {
            Some(ScriptOp::Make { class, x, y }) => {
                let (name, attrs) = &classes[*class as usize % classes.len()];
                let vals = [Value::Int(*x as i64), Value::Int(*y as i64)];
                let sets: Vec<(&str, Value)> = attrs.iter().map(String::as_str).zip(vals).collect();
                self.made.push(self.e.make_wme(name, &sets).unwrap());
            }
            // An id made before a rollback may since have been handed out
            // again: then this removes a base element, and breaks the mark.
            Some(ScriptOp::Remove(k)) if !self.made.is_empty() => {
                let id = self.made.swap_remove(*k as usize % self.made.len());
                self.e.remove_wme_id(id);
            }
            Some(ScriptOp::Remove(_)) => {}
            None => {
                self.e.step().unwrap();
            }
        }
        self.next += 1;
    }

    /// Starts the script over on an emptied engine.
    fn start_over(&mut self) {
        self.e.reset();
        self.e.enable_cycle_log();
        self.made.clear();
        self.next = 0;
    }

    fn aside(&mut self, aside: Aside) -> bool {
        match aside {
            Aside::Reset => self.start_over(),
            Aside::Mark => return self.e.mark(),
            Aside::Rollback => {
                let rolled_back = self.e.rollback();
                if !rolled_back {
                    self.start_over();
                }
                return rolled_back;
            }
        }
        true
    }

    /// Everything the engine can show: cycle log, working memory with time
    /// tags, work, network statistics, output, halt flag, conflict-set size.
    fn observed(&self) -> impl PartialEq + std::fmt::Debug {
        let e = &self.e;
        let wm: Vec<(WmeId, String)> = (e.wm().iter())
            .map(|(id, w)| (id, format!("{w} @{}", w.time_tag)))
            .collect();
        let counts = (e.work(), e.net_stats(), e.halted(), e.conflict_len());
        (e.cycle_log().to_vec(), wm, counts, e.output.clone())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// What one network per program rests on: engines instantiated from one
    /// `Arc<Network>` — two of them, or eight — each fed its own script, in
    /// any interleaving, while one of them is reset, marked and rolled back
    /// in between, are each the engine a network built for it alone would
    /// be: same working memory, work, network statistics, output and cycle
    /// log after every move of any of them, on both networks. Nothing an
    /// engine does is written where another could read it.
    #[test]
    fn engines_on_one_network_are_each_an_engine_on_its_own(
        prog_idx in 0usize..(SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() + 3),
        shared in (0u8..2).prop_map(|b| b == 1),
        eight in (0u8..4).prop_map(|b| b == 0),
        scripts in prop::collection::vec(script_strategy(1..14), 8..9),
        schedule in prop::collection::vec((0usize..8, 0u8..16), 8..120),
    ) {
        let src = if prog_idx < SHARING_PROGRAMS.len() {
            SHARING_PROGRAMS[prog_idx].replace("(halt)", "(remove 1)")
        } else if prog_idx < SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() {
            QUIESCENT_PROGRAMS[prog_idx - SHARING_PROGRAMS.len()].to_string()
        } else {
            let rest = [STATEFUL_PROGRAM, BLOCKER_PROGRAM, MARK_PROGRAM];
            rest[prog_idx - SHARING_PROGRAMS.len() - QUIESCENT_PROGRAMS.len()].to_string()
        };
        let program = Arc::new(Program::parse(&src).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let config = if shared { ReteConfig::shared() } else { ReteConfig::unshared() };
        let classes = script_classes(&program);
        let n = if eight { 8 } else { 2 };

        let network = Arc::new(Network::build(&compiled, &program, config));
        let built = Network::built_on_this_thread();
        let mut together: Vec<Driven> = (0..n)
            .map(|_| {
                let (p, c) = (Arc::clone(&program), Arc::clone(&compiled));
                Driven::new(Engine::with_network(p, c, Arc::clone(&network)))
            })
            .collect();
        prop_assert_eq!(Network::built_on_this_thread(), built, "instantiating builds nothing");
        prop_assert_eq!(Arc::strong_count(&network), 1 + n, "and every engine holds the one");
        let mut alone: Vec<Driven> = (0..n)
            .map(|_| {
                let (p, c) = (Arc::clone(&program), Arc::clone(&compiled));
                Driven::new(Engine::with_compiled_config(p, c, config))
            })
            .collect();

        for (step, &(who, what)) in schedule.iter().enumerate() {
            let i = who % n;
            let aside = match what {
                0 => Some(Aside::Reset),
                1 | 2 => Some(Aside::Mark),
                3 | 4 => Some(Aside::Rollback),
                _ => None,
            };
            match aside.filter(|_| i == 0) {
                Some(aside) => prop_assert_eq!(
                    together[0].aside(aside), alone[0].aside(aside), "step {}: {:?}", step, aside
                ),
                None => {
                    together[i].advance(&classes, &scripts[i]);
                    alone[i].advance(&classes, &scripts[i]);
                }
            }
            // Every engine, not only the one that moved: a move must not
            // show in another.
            for (k, (t, a)) in together.iter().zip(&alone).enumerate() {
                prop_assert_eq!(t.e.work(), a.e.work(), "step {}: engine {}", step, k);
            }
        }
        for (k, (t, a)) in together.iter().zip(&alone).enumerate() {
            prop_assert_eq!(&t.observed(), &a.observed(), "engine {}", k);
            prop_assert_eq!(t.e.snapshot(), a.e.snapshot(), "engine {}", k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A right activation that cannot pair is decided before it is made and
    /// charged as if it had been (`Rete::add_wme`), on one path whether the
    /// engine is profiled or not. So an engine with `enable_profile` and one
    /// without, fed the same script, show the same work, network statistics
    /// (null right activations included) and whole cycle log after every
    /// move — WM changes, firings, resets, marks and rollbacks — on both
    /// networks.
    #[test]
    fn profiling_moves_no_count(
        prog_idx in 0usize..(SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() + 3),
        shared in (0u8..2).prop_map(|b| b == 1),
        script in script_strategy(1..24),
        schedule in prop::collection::vec(0u8..20, 8..80),
    ) {
        let src = if prog_idx < SHARING_PROGRAMS.len() {
            SHARING_PROGRAMS[prog_idx].replace("(halt)", "(remove 1)")
        } else if prog_idx < SHARING_PROGRAMS.len() + QUIESCENT_PROGRAMS.len() {
            QUIESCENT_PROGRAMS[prog_idx - SHARING_PROGRAMS.len()].to_string()
        } else {
            let rest = [STATEFUL_PROGRAM, BLOCKER_PROGRAM, MARK_PROGRAM];
            rest[prog_idx - SHARING_PROGRAMS.len() - QUIESCENT_PROGRAMS.len()].to_string()
        };
        let program = Arc::new(Program::parse(&src).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let config = if shared { ReteConfig::shared() } else { ReteConfig::unshared() };
        let classes = script_classes(&program);
        let network = Arc::new(Network::build(&compiled, &program, config));
        let engine = || {
            let (p, c) = (Arc::clone(&program), Arc::clone(&compiled));
            Engine::with_network(p, c, Arc::clone(&network))
        };
        let mut plain = Driven::new(engine());
        let mut profiled = Driven::new(engine());
        profiled.e.enable_profile();

        for (step, &what) in schedule.iter().enumerate() {
            let aside = match what {
                0 => Some(Aside::Reset),
                1 | 2 => Some(Aside::Mark),
                3 | 4 => Some(Aside::Rollback),
                _ => None,
            };
            if let Some(aside) = aside {
                prop_assert_eq!(plain.aside(aside), profiled.aside(aside), "step {}", step);
            } else {
                plain.advance(&classes, &script);
                profiled.advance(&classes, &script);
            }
            // A reset and a rollback detach the profile.
            if profiled.e.take_profile().is_none() {
                profiled.e.enable_profile();
            }
            prop_assert_eq!(plain.e.work(), profiled.e.work(), "step {}", step);
            prop_assert_eq!(plain.e.net_stats(), profiled.e.net_stats(), "step {}", step);
            prop_assert_eq!(plain.e.cycle_log(), profiled.e.cycle_log(), "step {}", step);
        }
    }
}

/// One move of a network's life, for the alpha-index property.
#[derive(Clone, Debug)]
enum Move {
    Op(Op),
    /// Removes the `n`-th live WME (modulo how many there are) and adds it
    /// back with `^x` changed, as a `modify` does.
    Modify(u8, i8),
    Reset,
    Mark,
    Rollback,
    /// A new instance of the network fed the live WMEs in id order.
    Rebuild,
}

fn move_strategy() -> impl Strategy<Value = Move> {
    prop_oneof![
        8 => op_strategy().prop_map(Move::Op),
        2 => (0u8..64, -2i8..3).prop_map(|(k, x)| Move::Modify(k, x)),
        6 => (0usize..6).prop_map(|k| {
            [Move::Reset, Move::Mark, Move::Mark, Move::Rollback, Move::Rollback, Move::Rebuild][k]
                .clone()
        }),
    ]
}

/// Holds every declared index of `rete`'s alpha memories to its oracle —
/// the memory's WMEs, in arrival order, whose slot value has the probed key
/// — for the key of every live WME's slot and one no value has. With
/// `build` every index is probed, and built if it was not; without, only
/// the built ones are read.
fn indexes_agree(rete: &Rete, wm: &WmStore, build: bool) -> Result<(), String> {
    let (net, mems) = rete.alpha();
    let absent = Value::symbol("nowhere").hash_key();
    for m in 0..net.len() as u32 {
        for &slot in net.mem(m).index_slots() {
            let key_of = |w: WmeId| wm.get(w).expect("live").get(slot as usize).hash_key();
            let keys = wm.iter().map(|(id, _)| key_of(id)).chain([absent]);
            for key in keys {
                let got = if build {
                    Some(mems.probe(net, wm, m, slot, key))
                } else {
                    mems.built_probe(net, m, slot, key)
                };
                let Some(got) = got else { continue };
                let want: Vec<WmeId> = (mems.wmes(m).iter().copied())
                    .filter(|&w| key_of(w) == key)
                    .collect();
                if got != want {
                    return Err(format!(
                        "memory {m} slot {slot} key {key:#x}: {got:?}, holds {want:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// An alpha memory's hash index is built by the first probe since the
    /// memory last emptied and kept up after that (`AlphaMemories::probe`).
    /// Whatever the program, the network and the moves — additions,
    /// removals, modifies, resets, marks, rollbacks, rebuilds — after every
    /// move every probe answers what the memory holds: its WMEs in arrival
    /// order whose slot has the probed key. One network has every index
    /// probed after every move, so the next move finds them built and has
    /// to keep them up; the other is only read where its own joins built an
    /// index, during the move or before it. The two show the same work and
    /// statistics: when an index is built reaches no count.
    #[test]
    fn alpha_index_probes_equal_the_memory_after_every_move(
        prog_idx in 0usize..(PROGRAMS.len() + SHARING_PROGRAMS.len() + 2),
        shared in (0u8..2).prop_map(|b| b == 1),
        moves in prop::collection::vec(move_strategy(), 1..80),
    ) {
        let src = if prog_idx < PROGRAMS.len() {
            PROGRAMS[prog_idx]
        } else if prog_idx < PROGRAMS.len() + SHARING_PROGRAMS.len() {
            SHARING_PROGRAMS[prog_idx - PROGRAMS.len()]
        } else {
            [BLOCKER_PROGRAM, MARK_PROGRAM][prog_idx - PROGRAMS.len() - SHARING_PROGRAMS.len()]
        };
        let program = Program::parse(src).unwrap();
        let compiled = Engine::compile(&program).unwrap();
        let config = if shared { ReteConfig::shared() } else { ReteConfig::unshared() };
        let network = Arc::new(Network::build(&compiled, &program, config));
        let mut probed = Fed::new(Rete::instantiate(Arc::clone(&network)));
        let mut read = Fed::new(Rete::instantiate(Arc::clone(&network)));
        let (mut wm, mut live) = (WmStore::new(), Vec::new());
        // The first id after the standing mark.
        let mut mark: Option<WmeId> = None;
        for (step, mv) in moves.iter().enumerate() {
            match *mv {
                Move::Op(ref op) => {
                    let nets = &mut [&mut probed, &mut read];
                    apply_op(op, &program, &mut wm, &mut live, nets);
                }
                Move::Modify(_, _) if live.is_empty() => {}
                Move::Modify(k, x) => {
                    let id = live.swap_remove(k as usize % live.len());
                    [&mut probed, &mut read].into_iter().for_each(|f| f.rete.remove_wme(id, &wm));
                    let mut w = wm.remove(id).unwrap();
                    w.set(0, Value::Int(x as i64));
                    w.time_tag = wm.raw_slots().len() as u64 + 1;
                    let id = wm.add(w);
                    live.push(id);
                    for f in [&mut probed, &mut read] {
                        f.rete.add_wme(id, &wm);
                    }
                }
                Move::Mark => {
                    let marked = [&mut probed, &mut read].map(|f| f.rete.mark(&wm));
                    prop_assert_eq!(marked[0], marked[1]);
                    mark = marked[0].then(|| wm.next_id());
                }
                // The set goes with a rollback or a reset, as the engine's
                // does: the names it holds are free again.
                Move::Rollback if mark.is_some() && probed.rete.rollback() => {
                    prop_assert!(read.rete.rollback(), "step {}: only one rolled back", step);
                    let base = mark.unwrap();
                    wm.truncate(base.0 as usize);
                    live.retain(|&w| w < base);
                    [&mut probed, &mut read].into_iter().for_each(|f| f.cs.clear());
                }
                // A declined rollback resets, like a reset.
                Move::Reset | Move::Rollback => {
                    let declined = matches!(mv, Move::Rollback) && read.rete.rollback();
                    prop_assert!(!declined, "step {}: only one rolled back", step);
                    for f in [&mut probed, &mut read] {
                        f.rete.reset();
                        f.cs.clear();
                    }
                    (wm, mark) = (WmStore::new(), None);
                    live.clear();
                }
                Move::Rebuild => {
                    for f in [&mut probed, &mut read] {
                        let mut fresh = Rete::instantiate(Arc::clone(&network));
                        for (id, _) in wm.iter() {
                            fresh.add_wme(id, &wm);
                        }
                        *f = Fed::new(fresh);
                    }
                    mark = None;
                }
            }
            probed.drain(&wm);
            read.drain(&wm);
            let agree = indexes_agree(&probed.rete, &wm, true);
            prop_assert!(agree.is_ok(), "step {} {:?}, probed: {}", step, mv, agree.unwrap_err());
            let agree = indexes_agree(&read.rete, &wm, false);
            prop_assert!(agree.is_ok(), "step {} {:?}, read: {}", step, mv, agree.unwrap_err());
            prop_assert_eq!(probed.rete.work, read.rete.work, "step {}", step);
            prop_assert_eq!(probed.rete.net_stats(), read.rete.net_stats(), "step {}", step);
        }
    }
}

/// Joins on two and three equality keys, for the fingerprints of the
/// right indexes: `^x` is every join's indexed key, the others are what a
/// fingerprint covers. Positive joins, negations, a negation with an
/// ordering test beside its keys, and a third join whose keys cross.
const FINGERPRINT_PROGRAMS: &[&str] = &[
    "(literalize a x y z)
     (literalize b x y z)
     (p two (a ^x <v> ^y <u>) (b ^x <v> ^y <u>) --> (halt))
     (p not-two (a ^x <v> ^y <u>) -(b ^x <v> ^y <u>) --> (halt))",
    "(literalize a x y z)
     (literalize b x y z)
     (literalize c x y z)
     (p three (a ^x <v> ^y <u> ^z <w>) (b ^x <v> ^y <u> ^z <w>) (c ^x <v> ^y <w> ^z <u>)
        --> (halt))
     (p guarded (a ^x <v> ^y <u>) -(b ^x <v> ^z <u> ^y > <u>) (c ^x <v> ^y <u>) --> (halt))",
];

/// What the fingerprinted keys take: equal values of different
/// representation (`3` / `3.0`, `0` / `-0.0`, `1` / `1.0`); unequal
/// values of one hash key, hence one fingerprint (the integers 2^53 and
/// 2^53 + 1, NaN and itself, a symbol and the float whose bits are its
/// key); and 2^53 as a float, which both of those integers equal.
fn fingerprint_values() -> [Value; 12] {
    let water = Value::symbol("water");
    [
        Value::Int(3),
        Value::Float(3.0),
        Value::Int(0),
        Value::Float(-0.0),
        Value::Int(1),
        Value::Float(1.0),
        Value::Float(f64::NAN),
        Value::Int(1 << 53),
        Value::Int((1 << 53) + 1),
        Value::Float((1u64 << 53) as f64),
        water,
        Value::Float(f64::from_bits(water.hash_key())),
    ]
}

/// The same value in its other representation, where it has one exactly:
/// `ops_eq` and every ordering between two of [`fingerprint_values`] come
/// out the same after the swap.
fn other_representation(v: Value) -> Value {
    match v {
        Value::Int(i @ (0 | 1 | 3)) => Value::Float(if i == 0 { -0.0 } else { i as f64 }),
        Value::Float(f) if f == 0.0 || f == 1.0 || f == 3.0 => Value::Int(f as i64),
        v => v,
    }
}

/// One move of the fingerprint property.
#[derive(Clone, Debug)]
enum KeyMove {
    /// A WME of class `a`, `b` or `c`: `^x` from a pool of three (two of
    /// them equal) so that indexed populations fill, `^y` and `^z` from
    /// [`fingerprint_values`].
    Add([u8; 4]),
    /// A WME of class `a`, `b` or `c` with the values of the `n`-th live
    /// WME: its `^y` and `^z` crossed over, and each value in its other
    /// representation, as the flags say — so that joins on every key pass.
    Echo(u8, u8, bool, bool),
    Remove(u8),
    /// Removes the `n`-th live WME and adds it back with another `^y`.
    Modify(u8, u8),
    Mark,
    Rollback,
    Reset,
}

fn key_move_strategy() -> impl Strategy<Value = KeyMove> {
    prop_oneof![
        10 => (0u8..3, 0u8..3, 0u8..12, 0u8..12).prop_map(|(c, x, y, z)| KeyMove::Add([c, x, y, z])),
        6 => (0u8..64, 0u8..3, 0u8..4)
            .prop_map(|(k, c, flags)| KeyMove::Echo(k, c, flags & 1 == 1, flags & 2 == 2)),
        2 => (0u8..64).prop_map(KeyMove::Remove),
        2 => (0u8..64, 0u8..12).prop_map(|(k, y)| KeyMove::Modify(k, y)),
        2 => (0usize..3).prop_map(|k| [KeyMove::Mark, KeyMove::Rollback, KeyMove::Reset][k].clone()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A right activation skips, unloaded, a candidate whose fingerprint of
    /// its node's other equality keys differs from the arriving WME's: a
    /// mismatch proves an equality test fails, and a shared fingerprint
    /// (a collision, or values of one key that `ops_eq` tells apart) falls
    /// through to the tests. After every move — additions, removals,
    /// modifies, marks, rollbacks, resets — the conflict set is the naive
    /// matcher's re-match of the WM. A twin network is fed the same moves
    /// with every value that has one in its other representation: a
    /// fingerprint is of values, not of representations, so the twin shows
    /// the same instantiations, work, chunks and statistics, skips included.
    #[test]
    fn fingerprinted_joins_equal_the_naive_match_after_every_move(
        prog_idx in 0usize..FINGERPRINT_PROGRAMS.len(),
        moves in prop::collection::vec(key_move_strategy(), 1..120),
    ) {
        let program = Program::parse(FINGERPRINT_PROGRAMS[prog_idx]).unwrap();
        let compiled = Engine::compile(&program).unwrap();
        let network = Arc::new(Network::build(&compiled, &program, ReteConfig::shared()));
        let values = fingerprint_values();
        let xs = [Value::Int(1), Value::Float(1.0), Value::Int(2)];
        let classes = [sym("a"), sym("b"), sym("c")];
        let mut sides = [(); 2].map(|_| {
            (Fed::new(Rete::instantiate(Arc::clone(&network))), WmStore::new())
        });
        let mut live: Vec<WmeId> = Vec::new();
        let mut mark: Option<WmeId> = None;
        for (step, mv) in moves.iter().enumerate() {
            // Puts `w`, as the first side has it, into both sides.
            let add = |sides: &mut [(Fed, WmStore); 2], w: Wme| {
                let mut twin = w.clone();
                twin.fields.iter_mut().for_each(|v| *v = other_representation(*v));
                let [one, other] = sides;
                let ids = [(one, w), (other, twin)].map(|((f, wm), w)| {
                    let id = wm.add(w);
                    f.rete.add_wme(id, wm);
                    id
                });
                assert_eq!(ids[0], ids[1]);
                ids[0]
            };
            let remove = |sides: &mut [(Fed, WmStore); 2], id: WmeId| {
                let [w, _] = sides.each_mut().map(|(f, wm)| {
                    f.rete.remove_wme(id, wm);
                    wm.remove(id).unwrap()
                });
                w
            };
            match *mv {
                KeyMove::Add([c, x, y, z]) => {
                    let class = classes[c as usize];
                    if program.class(class).is_none() {
                        continue;
                    }
                    let mut w = Wme::new(class, 3, sides[0].1.raw_slots().len() as u64 + 1);
                    w.set(0, xs[x as usize]);
                    w.set(1, values[y as usize]);
                    w.set(2, values[z as usize]);
                    live.push(add(&mut sides, w));
                }
                KeyMove::Remove(_) | KeyMove::Modify(..) | KeyMove::Echo(..) if live.is_empty() => {}
                KeyMove::Echo(k, c, cross, swap) => {
                    let class = classes[c as usize];
                    if program.class(class).is_none() {
                        continue;
                    }
                    let of = sides[0].1.get(live[k as usize % live.len()]).unwrap();
                    let mut fields = of.fields.clone();
                    if cross {
                        fields.swap(1, 2);
                    }
                    if swap {
                        fields.iter_mut().for_each(|v| *v = other_representation(*v));
                    }
                    let time_tag = sides[0].1.raw_slots().len() as u64 + 1;
                    live.push(add(&mut sides, Wme { class, fields, time_tag }));
                }
                KeyMove::Remove(k) => {
                    let id = live.swap_remove(k as usize % live.len());
                    remove(&mut sides, id);
                }
                KeyMove::Modify(k, y) => {
                    let id = live.swap_remove(k as usize % live.len());
                    let mut w = remove(&mut sides, id);
                    w.set(1, values[y as usize]);
                    w.time_tag = sides[0].1.raw_slots().len() as u64 + 1;
                    live.push(add(&mut sides, w));
                }
                KeyMove::Mark => {
                    let marked = sides.each_mut().map(|(f, wm)| f.rete.mark(wm));
                    prop_assert_eq!(marked[0], marked[1], "step {}", step);
                    mark = marked[0].then(|| sides[0].1.next_id());
                }
                KeyMove::Rollback if mark.is_some() && sides[0].0.rete.rollback() => {
                    prop_assert!(sides[1].0.rete.rollback(), "step {}: one rolled back", step);
                    let base = mark.unwrap();
                    for (f, wm) in &mut sides {
                        wm.truncate(base.0 as usize);
                        f.cs = ConflictSet::new();
                    }
                    live.retain(|&w| w < base);
                }
                // A declined rollback resets, like a reset.
                KeyMove::Reset | KeyMove::Rollback => {
                    let declined = matches!(mv, KeyMove::Rollback) && sides[1].0.rete.rollback();
                    prop_assert!(!declined, "step {}: one rolled back", step);
                    for (f, wm) in &mut sides {
                        f.rete.reset();
                        (f.cs, *wm) = (ConflictSet::new(), WmStore::new());
                    }
                    (live, mark) = (Vec::new(), None);
                }
            }
            for (f, wm) in &mut sides {
                f.drain(wm);
            }
            let [(one, wm), (twin, _)] = &mut sides;
            let mut work = 0;
            let naive = canonical(&match_all(&program, &compiled, wm, &mut work));
            prop_assert_eq!(&keys(&one.cs), &naive, "step {} {:?}", step, mv);
            prop_assert_eq!(&keys(&twin.cs), &naive, "step {} {:?}", step, mv);
            prop_assert_eq!(one.rete.work, twin.rete.work, "step {}", step);
            prop_assert_eq!(one.rete.net_stats(), twin.rete.net_stats(), "step {}", step);
            prop_assert_eq!(one.rete.take_chunks(), twin.rete.take_chunks(), "step {}", step);
        }
    }
}

/// What the source fuzz below substitutes: OPS5's punctuation, digits, the
/// characters of a float, whitespace.
const FUZZ_ALPHABET: &[u8] = b"()<>{}^-=|0123456789.e \n\t";

/// `PROGRAMS[k]`, or for `k == PROGRAMS.len()` a production whose RHS nests
/// `compute` 50 000 deep (≈ 0.45 MB): far past the parser's depth cap.
fn fuzz_source(k: usize) -> String {
    if k < PROGRAMS.len() {
        return PROGRAMS[k].to_string();
    }
    let (open, close) = ("(compute ".repeat(50_000), " + 1)".repeat(50_000));
    format!("(literalize b c)\n(p deep (b) --> (make b ^c {open}1{close}))")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// OPS5 source is bytes we did not produce. Cut anywhere and with any
    /// characters swapped for OPS5-ish ones, a program goes through every
    /// stage that reads it — parse, compile, both networks' build, engine
    /// construction — to `Ok` or `Err`, never a panic or a stack overflow.
    #[test]
    fn damaged_source_is_refused_or_built_never_a_panic(
        k in 0usize..PROGRAMS.len() + 1,
        cut in 0usize..usize::MAX,
        subs in prop::collection::vec((0usize..usize::MAX, 0..FUZZ_ALPHABET.len()), 0..8),
    ) {
        let mut chars: Vec<char> = fuzz_source(k).chars().collect();
        chars.truncate(cut % (chars.len() + 1));
        for (at, c) in subs {
            if !chars.is_empty() {
                let at = at % chars.len();
                chars[at] = char::from(FUZZ_ALPHABET[c]);
            }
        }
        let src: String = chars.into_iter().collect();
        let Ok(program) = Program::parse(&src) else { return Ok(()) };
        let program = Arc::new(program);
        let Ok(compiled) = Engine::compile(&program) else { return Ok(()) };
        for config in [ReteConfig::shared(), ReteConfig::unshared()] {
            let network = Arc::new(Network::build(&compiled, &program, config));
            Engine::with_network(Arc::clone(&program), Arc::clone(&compiled), network);
        }
    }
}
