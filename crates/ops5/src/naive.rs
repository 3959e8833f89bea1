//! A naive, non-incremental matcher.
//!
//! Re-derives the complete conflict set from scratch by backtracking over
//! condition elements. Two uses:
//!
//! 1. **Differential-testing oracle**: after any sequence of WM changes, the
//!    Rete's conflict set must equal `match_all`'s result (property tests).
//! 2. **Unoptimised-baseline stand-in**: the paper's baseline port (§6)
//!    reports a 10–20× speed-up of the C/ParaOPS5 system over the original
//!    Lisp OPS5. An engine that re-matches naively every cycle reproduces
//!    the unoptimised cost profile deterministically.

use crate::ast::Production;
use crate::conflict::Instantiation;
use crate::instrument::cost;
use crate::program::Program;
use crate::rete::compile::{eval_alpha, CompiledProduction, JoinTest};
use crate::wme::{WmStore, WmeId};

/// Computes every current instantiation of every production, accumulating
/// naive match cost into `work`.
pub fn match_all(
    program: &Program,
    compiled: &[CompiledProduction],
    wm: &WmStore,
    work: &mut u64,
) -> Vec<Instantiation> {
    match_all_except(program, compiled, wm, None, work)
}

/// [`match_all`] over `wm` as it will be once `gone` has left it — what a
/// [`crate::matcher::Matcher::remove_wme`], called while the WME is still
/// in the store, has to match against.
pub(crate) fn match_all_except(
    program: &Program,
    compiled: &[CompiledProduction],
    wm: &WmStore,
    gone: Option<WmeId>,
    work: &mut u64,
) -> Vec<Instantiation> {
    let mut out = Vec::new();
    for cp in compiled {
        let prod = &program.productions[cp.prod as usize];
        match_production(cp, prod, wm, gone, work, &mut out);
    }
    out
}

fn match_production(
    cp: &CompiledProduction,
    prod: &Production,
    wm: &WmStore,
    gone: Option<WmeId>,
    work: &mut u64,
    out: &mut Vec<Instantiation>,
) {
    // Candidate lists per node: WMEs passing the constant tests.
    let mut candidates: Vec<Vec<WmeId>> = Vec::with_capacity(cp.nodes.len());
    for node in &cp.nodes {
        let mut c = Vec::new();
        for (id, wme) in wm.iter() {
            if wme.class != node.class || Some(id) == gone {
                continue;
            }
            *work += node.alpha_tests.len() as u64 * cost::ALPHA_TEST + cost::ALPHA_TEST;
            if node.alpha_tests.iter().all(|t| eval_alpha(t, &wme.fields)) {
                c.push(id);
            }
        }
        candidates.push(c);
    }

    let mut partial: Vec<Option<WmeId>> = vec![None; cp.nodes.len()];
    backtrack(cp, prod, wm, &candidates, &mut partial, 0, work, out);
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    cp: &CompiledProduction,
    prod: &Production,
    wm: &WmStore,
    candidates: &[Vec<WmeId>],
    partial: &mut Vec<Option<WmeId>>,
    level: usize,
    work: &mut u64,
    out: &mut Vec<Instantiation>,
) {
    if level == cp.nodes.len() {
        let wmes: Vec<WmeId> = partial.iter().copied().flatten().collect();
        let tags: Vec<u64> = wmes.iter().map(|&w| wm.time_tag(w)).collect();
        out.push(Instantiation::new(cp.prod, wmes, tags, prod.specificity));
        return;
    }
    let node = &cp.nodes[level];
    if node.negated {
        // Negative element: succeed only when no candidate joins.
        for &w in &candidates[level] {
            *work += node.join_tests.len() as u64 * cost::JOIN_TEST;
            if join_ok(&node.join_tests, partial, w, wm) {
                return; // blocked
            }
        }
        partial[level] = None;
        backtrack(cp, prod, wm, candidates, partial, level + 1, work, out);
    } else {
        for &w in &candidates[level] {
            *work += node.join_tests.len() as u64 * cost::JOIN_TEST + cost::TOKEN_OP;
            if join_ok(&node.join_tests, partial, w, wm) {
                partial[level] = Some(w);
                backtrack(cp, prod, wm, candidates, partial, level + 1, work, out);
                partial[level] = None;
            }
        }
    }
}

fn join_ok(tests: &[JoinTest], partial: &[Option<WmeId>], w: WmeId, wm: &WmStore) -> bool {
    let Some(wme) = wm.get(w) else { return false };
    for t in tests {
        let Some(their_id) = partial.get(t.their_level as usize).copied().flatten() else {
            return false;
        };
        let Some(their) = wm.get(their_id) else {
            return false;
        };
        if !t.predicate.eval(
            &wme.get(t.my_slot as usize),
            &their.get(t.their_slot as usize),
        ) {
            return false;
        }
    }
    true
}

/// Canonical, order-independent form of a conflict set for comparisons.
pub fn canonical(insts: &[Instantiation]) -> Vec<(u32, Vec<WmeId>)> {
    let mut v: Vec<(u32, Vec<WmeId>)> = insts
        .iter()
        .map(|i| (i.production, i.wmes.to_vec()))
        .collect();
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::symbol::sym;
    use crate::value::Value;
    use std::sync::Arc;

    fn setup(src: &str) -> (Arc<Program>, Arc<Vec<CompiledProduction>>) {
        let p = Arc::new(Program::parse(src).unwrap());
        let c = Engine::compile(&p).unwrap();
        (p, c)
    }

    #[test]
    fn naive_matches_simple_join() {
        let (p, c) = setup(
            "(literalize a x)
             (literalize b y)
             (p j (a ^x <v>) (b ^y <v>) --> (halt))",
        );
        let mut wm = WmStore::new();
        let add = |wm: &mut WmStore, class: &str, v: i64, tag: u64| {
            let mut w = crate::wme::Wme::new(sym(class), 1, tag);
            w.set(0, Value::Int(v));
            wm.add(w)
        };
        add(&mut wm, "a", 1, 1);
        add(&mut wm, "b", 1, 2);
        add(&mut wm, "b", 2, 3);
        let mut work = 0;
        let m = match_all(&p, &c, &wm, &mut work);
        assert_eq!(m.len(), 1);
        assert!(work > 0);
    }

    #[test]
    fn naive_negation() {
        let (p, c) = setup(
            "(literalize region id)
             (literalize fragment region)
             (p u (region ^id <r>) -(fragment ^region <r>) --> (halt))",
        );
        let mut wm = WmStore::new();
        let mut r = crate::wme::Wme::new(sym("region"), 1, 1);
        r.set(0, Value::Int(1));
        wm.add(r);
        let mut r2 = crate::wme::Wme::new(sym("region"), 1, 2);
        r2.set(0, Value::Int(2));
        wm.add(r2);
        let mut f = crate::wme::Wme::new(sym("fragment"), 1, 3);
        f.set(0, Value::Int(1));
        wm.add(f);
        let mut work = 0;
        let m = match_all(&p, &c, &wm, &mut work);
        assert_eq!(m.len(), 1, "only region 2 is unclaimed");
        assert_eq!(m[0].wmes.len(), 1);
    }

    #[test]
    fn canonical_sorts_and_dedups() {
        let a = Instantiation::new(1, vec![WmeId(2)], vec![2], 0);
        let b = Instantiation::new(0, vec![WmeId(1)], vec![1], 0);
        let c = canonical(&[a.clone(), b.clone(), a]);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].0, 0);
    }
}
