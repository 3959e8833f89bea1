//! Shared+indexed vs unshared-network differential over the real SPAM
//! phases: the network configuration must never change *what* the system
//! computes — hypotheses, firings, serial work — only how much match work
//! it takes, and the shared network must take substantially less (the
//! point of Rete sharing and memory indexing).

use spam::datasets;
use spam::generate::generate_scene;
use spam::lcc::{run_lcc, Level};
use spam::rtf::run_rtf;
use spam::rules::SpamProgram;
use std::sync::Arc;

fn programs() -> (SpamProgram, SpamProgram) {
    let shared = SpamProgram::build();
    let unshared = shared.clone().with_config(ops5::ReteConfig::unshared());
    (shared, unshared)
}

#[test]
fn rtf_results_are_network_independent() {
    let (sp_s, sp_u) = programs();
    let scene = Arc::new(generate_scene(&datasets::dc().spec));
    let s = run_rtf(&sp_s, &scene);
    let u = run_rtf(&sp_u, &scene);
    assert_eq!(s.fragments, u.fragments, "hypotheses diverge");
    assert_eq!(s.firings, u.firings, "firing counts diverge");
    // Serial-side work is identical; only match work may differ.
    assert_eq!(s.work.resolve_units, u.work.resolve_units);
    assert_eq!(s.work.act_units, u.work.act_units);
    assert_eq!(s.work.external_units, u.work.external_units);
    assert!(
        s.work.match_units <= u.work.match_units,
        "shared RTF match {} exceeds unshared {}",
        s.work.match_units,
        u.work.match_units
    );
}

#[test]
fn lcc_results_are_network_independent() {
    // L2 — the fine-grained decomposition the pipeline uses — exercises
    // hundreds of small task engines, including the negated-condition
    // paths; the network configuration must not change any output.
    let (sp_s, sp_u) = programs();
    let scene = Arc::new(generate_scene(&datasets::dc().spec));
    let frags = Arc::new(run_rtf(&sp_s, &scene).fragments);
    let s = run_lcc(&sp_s, &scene, &frags, Level::L2);
    let u = run_lcc(&sp_u, &scene, &frags, Level::L2);
    assert_eq!(s.fragments, u.fragments, "support totals diverge");
    assert_eq!(s.consistents, u.consistents, "consistency records diverge");
    assert_eq!(s.firings, u.firings, "firing counts diverge");
    assert_eq!(s.work.resolve_units, u.work.resolve_units);
    assert_eq!(s.work.act_units, u.work.act_units);
    assert_eq!(s.work.external_units, u.work.external_units);
    assert!(
        s.work.match_units <= u.work.match_units,
        "shared LCC match {} exceeds unshared {}",
        s.work.match_units,
        u.work.match_units
    );
}

#[test]
fn sharing_cuts_lcc_match_work() {
    // The quadratic-hot-path acceptance bar, measured where the quadratic
    // actually lives: at the coarse L4 decomposition one engine holds the
    // whole kind's working memory, so the unshared network's linear token
    // and alpha-memory scans dominate. (Finer decompositions shrink the
    // memories *by splitting the task* — task-level parallelism and match
    // indexing attack the same quadratic — so their reduction is smaller:
    // ~23% at L2 vs ~70% here on DC.)
    let (sp_s, sp_u) = programs();
    let scene = Arc::new(generate_scene(&datasets::dc().spec));
    let frags = Arc::new(run_rtf(&sp_s, &scene).fragments);
    let s = run_lcc(&sp_s, &scene, &frags, Level::L4);
    let u = run_lcc(&sp_u, &scene, &frags, Level::L4);
    assert_eq!(s.fragments, u.fragments, "support totals diverge");
    assert_eq!(s.firings, u.firings, "firing counts diverge");
    let reduction = (u.work.match_units - s.work.match_units) as f64 / u.work.match_units as f64;
    assert!(
        reduction >= 0.25,
        "LCC match reduction {:.1}% (shared {} vs unshared {})",
        reduction * 100.0,
        s.work.match_units,
        u.work.match_units
    );
}

#[test]
fn lcc_pair_memories_are_reached_by_constraint_id() {
    // One `^constraint N ^status pending` memory per `lcc-eval-cN`
    // production: a pair element must find its own by N, not by walking
    // all of them. If a rule edit reorders those tests so that the class no
    // longer opens on one slot, match slows by a third and nothing else
    // would say so — work units are charged as for the full walk.
    for sp in [programs().0, programs().1] {
        let (memories, visited) = (sp.network)
            .alpha_fanout(spam::rules::schema().pair.class)
            .expect("lcc-pair is matched");
        assert!(memories > 50, "{memories} lcc-pair memories");
        assert!(visited <= 3, "a pair visits {visited} of {memories}");
    }
}

#[test]
fn a_program_moved_to_the_other_config_runs_its_engines_on_that_network() {
    // One network per program is only right if `with_config` swaps it: an
    // `engine()` still instantiated from the network `build()` made would
    // run every `--unshared` comparison on the shared network, unnoticed.
    let (shared, unshared) = programs();
    let beta_nodes = |sp: &SpamProgram| {
        let stats = sp.engine().net_stats();
        assert_eq!(stats.beta_nodes as usize, sp.network.beta_nodes());
        (stats.beta_nodes, stats.unshared_beta_nodes)
    };
    let (s, chains) = beta_nodes(&shared);
    assert_eq!(
        beta_nodes(&unshared),
        (chains, chains),
        "one node per chain node"
    );
    assert!(s < chains, "{s} shared beta nodes of {chains}");
    assert_eq!(unshared.network.config(), ops5::ReteConfig::unshared());
    // Back again is the shared network again — and asking for the config a
    // program already has keeps its network, engines and all.
    let back = unshared.clone().with_config(ops5::ReteConfig::shared());
    assert_eq!(beta_nodes(&back).0, s);
    let same = shared.clone().with_config(ops5::ReteConfig::shared());
    assert!(Arc::ptr_eq(&same.network, &shared.network));
    // A task process told apart by network, not by rule base: the two
    // programs share `compiled`, and an engine kept for one does not serve
    // the other.
    assert!(Arc::ptr_eq(&shared.compiled, &unshared.compiled));
    let scene = Arc::new(generate_scene(&datasets::dc().spec));
    let frags = Arc::new(run_rtf(&shared, &scene).fragments);
    let tp = &mut spam::task::TaskProcess::default();
    let unit = spam::lcc::LccUnit::Object(0);
    let on = |tp: &mut _, sp: &SpamProgram| spam::lcc::run_lcc_unit(tp, sp, &scene, &frags, &unit);
    let (s1, u, s2) = (on(tp, &shared), on(tp, &unshared), on(tp, &shared));
    assert_eq!(s1, s2);
    assert_eq!(s1.consistents, u.consistents);
    assert!(
        s1.work.match_units < u.work.match_units,
        "the unshared run scanned"
    );
}
