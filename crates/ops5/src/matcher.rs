//! The pluggable match-backend interface.
//!
//! The paper layers three match configurations over one interpreter: the
//! unoptimised (Lisp) matcher, the optimised sequential Rete, and ParaOPS5's
//! parallel Rete with dedicated match processes. This trait is that seam:
//! the engine drives any matcher through WME deltas and reads back
//! conflict-set change events.
//!
//! The cycle synchronises in one place: [`Matcher::drain_events`]. The
//! engine sends every WME change of a firing through `add_wme` /
//! `remove_wme` and drains once, when the RHS has run — ParaOPS5's one
//! barrier per cycle, at the resolve step (§3.1). A backend is free to do
//! its matching at the change or at the drain; what it hands over is the
//! *net* change since the previous drain.

use crate::conflict::Instantiation;
use crate::instrument::WorkCounters;
use crate::naive::match_all_except;
use crate::profile::MatchProfile;
use crate::program::Program;
use crate::rete::compile::CompiledProduction;
use crate::rete::{MatchEvent, Rete};
use crate::wme::{WmStore, WmeId};
use std::collections::HashMap;
use std::sync::Arc;

/// A match backend: maintains the conflict set incrementally as working
/// memory changes.
pub trait Matcher: Send {
    /// Processes a WME addition (`id` is live in `wm`).
    fn add_wme(&mut self, id: WmeId, wm: &WmStore);
    /// Processes a WME removal (`id` is still live in `wm`; the store drops
    /// it afterwards).
    fn remove_wme(&mut self, id: WmeId, wm: &WmStore);
    /// Appends the conflict-set changes accumulated since the last call to
    /// `out` (the caller's buffer, so a cycle's events cost no allocation).
    /// `wm` holds the changes sent since then. An instantiation that became
    /// satisfied and stopped being so between two calls need not appear.
    fn drain_events(&mut self, wm: &WmStore, out: &mut Vec<MatchEvent>);
    /// Number of independently schedulable match activations since the last
    /// call (the ParaOPS5 subtask count).
    fn take_chunks(&mut self) -> u32;
    /// Accumulated match work.
    fn work(&self) -> WorkCounters;
    /// Forgets every WME seen so far: memories, pending events, work, chunk
    /// and run statistics return to their just-made values and profiling
    /// is detached, while the capacity the memories grew stays (the
    /// compiled network was never the backend's own: see
    /// [`crate::rete::Network`]). After it the backend must answer any WME
    /// stream exactly as a newly made one would — [`crate::Engine::reset`]
    /// relies on that.
    fn reset(&mut self);
    /// Makes the backend's state now what [`Matcher::rollback`] returns to
    /// (`wm` holds the WMEs sent so far). `false`: not supported, or not in
    /// this state — the default, and then `rollback` declines too and the
    /// caller resets instead.
    fn mark(&mut self, _wm: &WmStore) -> bool {
        false
    }
    /// Returns the backend to its last [`Matcher::mark`], after which it
    /// must answer any WME stream exactly as a newly built one that had
    /// first been sent the marked WMEs would — [`crate::Engine::rollback`]
    /// relies on that. `false` (and nothing changed) when there is no mark
    /// to return to or a removal since has broken it.
    fn rollback(&mut self) -> bool {
        false
    }
    /// A terminal failure inside the match backend (e.g. a parallel pool
    /// that lost workers under a fail-fast policy). The engine checks this
    /// each cycle and stops with `RunOutcome::error` instead of panicking.
    /// In-process matchers never fail.
    fn failure(&self) -> Option<String> {
        None
    }
    /// Network sharing/indexing statistics. Backends without a Rete
    /// network (the naive matcher) report all-zero stats.
    fn net_stats(&self) -> crate::profile::NetStats {
        crate::profile::NetStats::default()
    }
    /// Starts match-level profiling. Backends without profiling support
    /// treat this as a no-op.
    fn enable_profile(&mut self) {}
    /// Takes the accumulated match profile; `None` for backends that do not
    /// collect one (or when profiling was never enabled).
    fn take_profile(&mut self) -> Option<MatchProfile> {
        None
    }
}

impl Matcher for Rete {
    fn add_wme(&mut self, id: WmeId, wm: &WmStore) {
        Rete::add_wme(self, id, wm)
    }
    fn remove_wme(&mut self, id: WmeId, wm: &WmStore) {
        Rete::remove_wme(self, id, wm)
    }
    fn drain_events(&mut self, wm: &WmStore, out: &mut Vec<MatchEvent>) {
        Rete::drain_events_into(self, wm, out)
    }
    fn take_chunks(&mut self) -> u32 {
        Rete::take_chunks(self)
    }
    fn work(&self) -> WorkCounters {
        self.work
    }
    fn reset(&mut self) {
        Rete::reset(self)
    }
    fn mark(&mut self, wm: &WmStore) -> bool {
        Rete::mark(self, wm)
    }
    fn rollback(&mut self) -> bool {
        Rete::rollback(self)
    }
    fn net_stats(&self) -> crate::profile::NetStats {
        Rete::net_stats(self)
    }
    fn enable_profile(&mut self) {
        Rete::enable_profile(self)
    }
    fn take_profile(&mut self) -> Option<MatchProfile> {
        Rete::take_profile(self)
    }
}

/// The naive matcher as a backend: re-matches everything on each WM change
/// and hands over, at the drain, the difference against what it handed over
/// before. Functionally identical to the Rete (the property tests assert
/// this); the cost profile is that of the paper's unoptimised Lisp baseline
/// — one full re-match per change, however many changes a drain covers.
pub struct NaiveMatcher {
    program: Arc<Program>,
    compiled: Arc<Vec<CompiledProduction>>,
    /// The match as of the last drain.
    prev: Keyed,
    /// The match as of the last WM change, when there was one since.
    next: Option<Keyed>,
    work: WorkCounters,
}

type Keyed = HashMap<(u32, Arc<[WmeId]>), Instantiation>;

impl NaiveMatcher {
    /// Creates a naive matcher for `program`.
    pub fn new(program: Arc<Program>, compiled: Arc<Vec<CompiledProduction>>) -> NaiveMatcher {
        NaiveMatcher {
            program,
            compiled,
            prev: HashMap::new(),
            next: None,
            work: WorkCounters::default(),
        }
    }

    /// Re-matches `wm` without `gone`, the WME a removal is about to drop.
    fn rematch(&mut self, wm: &WmStore, gone: Option<WmeId>) {
        let matches = match_all_except(
            &self.program,
            &self.compiled,
            wm,
            gone,
            &mut self.work.match_units,
        );
        self.next = Some(
            matches
                .into_iter()
                .map(|i| ((i.production, i.wmes.clone()), i))
                .collect(),
        );
    }
}

impl Matcher for NaiveMatcher {
    fn add_wme(&mut self, _id: WmeId, wm: &WmStore) {
        self.rematch(wm, None);
    }

    fn remove_wme(&mut self, id: WmeId, wm: &WmStore) {
        self.rematch(wm, Some(id));
    }

    fn drain_events(&mut self, _wm: &WmStore, events: &mut Vec<MatchEvent>) {
        let Some(next) = self.next.take() else {
            return;
        };
        // Deterministic order for reproducibility of any downstream logs.
        let mut removed: Vec<_> = self
            .prev
            .keys()
            .filter(|k| !next.contains_key(*k))
            .cloned()
            .collect();
        removed.sort();
        for (production, wmes) in removed {
            events.push(MatchEvent::Retract { production, wmes });
        }
        let mut added: Vec<_> = next
            .keys()
            .filter(|k| !self.prev.contains_key(*k))
            .cloned()
            .collect();
        added.sort();
        for k in added {
            events.push(MatchEvent::Insert(next[&k].clone()));
        }
        self.prev = next;
    }

    fn take_chunks(&mut self) -> u32 {
        1 // the naive matcher is one indivisible unit of match work
    }

    fn work(&self) -> WorkCounters {
        self.work
    }

    fn reset(&mut self) {
        self.prev.clear();
        self.next = None;
        self.work = WorkCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use crate::value::Value;
    use crate::wme::Wme;

    #[test]
    fn naive_matcher_emits_diffs() {
        let program = Arc::new(
            Program::parse(
                "(literalize a x)
                 (literalize b x)
                 (p j (a ^x <v>) (b ^x <v>) --> (halt))",
            )
            .unwrap(),
        );
        let compiled = crate::engine::Engine::compile(&program).unwrap();
        let mut m = NaiveMatcher::new(Arc::clone(&program), compiled);
        let mut wm = WmStore::new();

        let mut w1 = Wme::new(sym("a"), 1, 1);
        w1.set(0, Value::Int(1));
        let id1 = wm.add(w1);
        m.add_wme(id1, &wm);
        let drain = |m: &mut NaiveMatcher, wm: &WmStore| {
            let mut ev = Vec::new();
            m.drain_events(wm, &mut ev);
            ev
        };
        assert!(drain(&mut m, &wm).is_empty(), "no join partner yet");

        let mut w2 = Wme::new(sym("b"), 1, 2);
        w2.set(0, Value::Int(1));
        let id2 = wm.add(w2);
        m.add_wme(id2, &wm);
        let ev = drain(&mut m, &wm);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], MatchEvent::Insert(_)));

        m.remove_wme(id1, &wm);
        wm.remove(id1);
        let ev = drain(&mut m, &wm);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], MatchEvent::Retract { .. }));

        // No change → no events.
        assert!(drain(&mut m, &wm).is_empty());
    }
}
