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
//! *net* change since the previous drain, written into the engine's one
//! [`MatchEvents`] batch: a list of changes over one WME buffer and one
//! time-tag buffer, which the engine empties and refills every firing, so
//! a warm cycle's events cost no allocation. The Rete writes into it in
//! place; the naive matcher keeps its match in an owned map and copies the
//! difference in at the drain.
//!
//! # Names
//!
//! Every change carries a `u32` *name* the matcher chose, and the conflict
//! set finds an instantiation by it ([`crate::ConflictSet::remove`]), not
//! by hashing its `(production, wmes)` key. The contract:
//!
//! - An `Insert` carries a name that no other live instantiation of its
//!   production from the same matcher holds, and a key no other live
//!   instantiation holds. Live means inserted and not yet retracted: the
//!   matcher does not see which instantiations the engine fires, so a fired
//!   one stays live until its `Retract` is written.
//! - A `Retract` carries the name its `Insert` gave. It still carries its
//!   `(production, wmes)` key, for the consumers that fold by key (the
//!   threaded matcher, the property tests).
//! - A name may be reused once a `Retract` of it has been written, whether
//!   later in the same batch or in a later batch.
//! - So live instantiations share a name only across productions: the Rete
//!   names an instantiation by its terminal token's slot, and a token that
//!   reaches k terminals gives k inserts under one name.
//! - [`Matcher::reset`] frees every name, and a [`Matcher::rollback`] every
//!   name given since the mark: the engine empties its conflict set with
//!   them.
//!
//! The conflict set treats a `Retract` of a name it does not hold as a
//! no-op: that is an instantiation it has already selected. A matcher with
//! no names of its own (the naive matcher, a pool of Retes whose token
//! slots collide) takes them from a [`SlotCursor`] and gives each back when
//! it writes the retraction.

pub use crate::buckets::SlotCursor;
use crate::conflict::{InstRef, Instantiation};
use crate::instrument::WorkCounters;
use crate::naive::match_all_except;
use crate::profile::MatchProfile;
use crate::program::Program;
use crate::rete::compile::CompiledProduction;
use crate::rete::Rete;
use crate::wme::{TimeTag, WmStore, WmeId};
use std::collections::HashMap;
use std::sync::Arc;

/// One conflict-set change, borrowed from its [`MatchEvents`] batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchEvent<'a> {
    /// A production instantiation became satisfied.
    Insert {
        /// The matcher's name for it (see the module doc).
        name: u32,
        /// The instantiation.
        inst: InstRef<'a>,
    },
    /// A previously satisfied instantiation is no longer satisfied.
    Retract {
        /// The name its insert gave.
        name: u32,
        /// Production index.
        production: u32,
        /// The WMEs of the retracted instantiation, as its insert had them.
        wmes: &'a [WmeId],
    },
}

/// A batch of conflict-set changes, flat: a change list over one WME
/// buffer and one time-tag buffer. Several changes may read the same
/// stretch of the buffers — a Rete token that reaches several terminals
/// writes its lists once. [`clear`](Self::clear) keeps every buffer's
/// capacity.
#[derive(Clone, Debug, Default)]
pub struct MatchEvents {
    changes: Vec<Change>,
    wmes: Vec<WmeId>,
    time_tags: Vec<TimeTag>,
}

/// One change of a [`MatchEvents`]: where its lists are in the buffers.
#[derive(Clone, Copy, Debug)]
struct Change {
    name: u32,
    production: u32,
    specificity: u32,
    /// The change's WMEs are `wmes[at..at + len]`.
    at: u32,
    len: u32,
    /// An insertion's time tags are `time_tags[tags..tags + len]`; `None`
    /// for a retraction.
    tags: Option<u32>,
}

impl MatchEvents {
    /// An empty batch.
    pub fn new() -> MatchEvents {
        MatchEvents::default()
    }

    /// Number of changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when the batch holds no change.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Forgets every change, keeping the buffers.
    pub fn clear(&mut self) {
        self.changes.clear();
        self.wmes.clear();
        self.time_tags.clear();
    }

    /// The changes, in the order they were written.
    pub fn iter(&self) -> impl Iterator<Item = MatchEvent<'_>> + '_ {
        self.changes.iter().map(|c| {
            let wmes = &self.wmes[c.at as usize..(c.at + c.len) as usize];
            match c.tags {
                Some(t) => MatchEvent::Insert {
                    name: c.name,
                    inst: InstRef {
                        production: c.production,
                        wmes,
                        time_tags: &self.time_tags[t as usize..(t + c.len) as usize],
                        specificity: c.specificity,
                    },
                },
                None => MatchEvent::Retract {
                    name: c.name,
                    production: c.production,
                    wmes,
                },
            }
        })
    }

    /// Appends an insertion named `name`, copying its lists.
    pub fn push_insert(&mut self, name: u32, inst: InstRef<'_>) {
        self.push_inserts(
            name,
            &[(inst.production, inst.specificity)],
            inst.wmes.iter().copied(),
            inst.time_tags.iter().copied(),
        );
    }

    /// Appends a retraction of the instantiation named `name`, copying its
    /// WME list.
    pub fn push_retract(&mut self, name: u32, production: u32, wmes: &[WmeId]) {
        self.push_retracts(name, &[(production, 0)], wmes.iter().rev().copied());
    }

    /// Appends one insertion per `(production, specificity)` of
    /// `terminals`, all named `name` and over one copy of `wmes` and
    /// `time_tags` (same length).
    pub(crate) fn push_inserts(
        &mut self,
        name: u32,
        terminals: &[(u32, u32)],
        wmes: impl IntoIterator<Item = WmeId>,
        time_tags: impl IntoIterator<Item = TimeTag>,
    ) {
        let (at, tags) = (self.wmes.len(), self.time_tags.len());
        self.wmes.extend(wmes);
        self.time_tags.extend(time_tags);
        let len = self.wmes.len() - at;
        debug_assert_eq!(self.time_tags.len() - tags, len);
        self.changes
            .extend(terminals.iter().map(|&(production, specificity)| Change {
                name,
                production,
                specificity,
                at: at as u32,
                len: len as u32,
                tags: Some(tags as u32),
            }));
    }

    /// Appends one retraction per production of `terminals`, all named
    /// `name` and over one copy of the WME list given *last element first*
    /// — the order a walk from a Rete token up its parent chain meets them
    /// in.
    pub(crate) fn push_retracts(
        &mut self,
        name: u32,
        terminals: &[(u32, u32)],
        reversed_wmes: impl IntoIterator<Item = WmeId>,
    ) {
        let at = self.wmes.len();
        self.wmes.extend(reversed_wmes);
        self.wmes[at..].reverse();
        let len = self.wmes.len() - at;
        self.changes
            .extend(terminals.iter().map(|&(production, _)| Change {
                name,
                production,
                specificity: 0,
                at: at as u32,
                len: len as u32,
                tags: None,
            }));
    }

    /// Moves every change of `other` to the end of this batch, leaving
    /// `other` empty with its buffers.
    pub fn append(&mut self, other: &mut MatchEvents) {
        if self.is_empty() {
            self.clear();
            std::mem::swap(self, other);
            return;
        }
        let (at, tags) = (self.wmes.len() as u32, self.time_tags.len() as u32);
        self.changes.extend(other.changes.iter().map(|c| Change {
            at: c.at + at,
            tags: c.tags.map(|t| t + tags),
            ..*c
        }));
        self.wmes.extend_from_slice(&other.wmes);
        self.time_tags.extend_from_slice(&other.time_tags);
        other.clear();
    }
}

/// A match backend: maintains the conflict set incrementally as working
/// memory changes.
pub trait Matcher: Send {
    /// Processes a WME addition (`id` is live in `wm`).
    fn add_wme(&mut self, id: WmeId, wm: &WmStore);
    /// Processes a WME removal (`id` is still live in `wm`; the store drops
    /// it afterwards).
    fn remove_wme(&mut self, id: WmeId, wm: &WmStore);
    /// Appends the conflict-set changes accumulated since the last call to
    /// `out` (the caller's batch, so a cycle's events cost no allocation).
    /// `wm` holds the changes sent since then. An instantiation that became
    /// satisfied and stopped being so between two calls need not appear.
    /// Every change is named as the module doc says.
    fn drain_events(&mut self, wm: &WmStore, out: &mut MatchEvents);
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
    /// relies on that. A backend that has failed ([`Matcher::failure`])
    /// stays failed: its run is over, and a fresh backend is what runs
    /// again.
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
    /// A terminal failure inside the match backend (a parallel pool that
    /// lost a worker). The engine checks this
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
    fn drain_events(&mut self, wm: &WmStore, out: &mut MatchEvents) {
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
    /// The match as of the last drain: each key with the name it was handed
    /// over under.
    prev: HashMap<Key, u32>,
    /// Where those names come from.
    names: SlotCursor,
    /// The match as of the last WM change, when there was one since.
    next: Option<HashMap<Key, Instantiation>>,
    work: WorkCounters,
}

type Key = (u32, Vec<WmeId>);

impl NaiveMatcher {
    /// Creates a naive matcher for `program`.
    pub fn new(program: Arc<Program>, compiled: Arc<Vec<CompiledProduction>>) -> NaiveMatcher {
        NaiveMatcher {
            program,
            compiled,
            prev: HashMap::new(),
            names: SlotCursor::default(),
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

    fn drain_events(&mut self, _wm: &WmStore, events: &mut MatchEvents) {
        let Some(next) = self.next.take() else {
            return;
        };
        // Deterministic order for reproducibility of any downstream logs.
        let mut removed: Vec<Key> = (self.prev.keys())
            .filter(|k| !next.contains_key(*k))
            .cloned()
            .collect();
        removed.sort();
        for key in removed {
            let name = self.prev.remove(&key).expect("a handed-over key");
            events.push_retract(name, key.0, &key.1);
            self.names.give(name);
        }
        let mut added: Vec<_> = (next.into_iter())
            .filter(|(k, _)| !self.prev.contains_key(k))
            .collect();
        added.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, i) in added {
            let name = self.names.take();
            events.push_insert(name, i.view());
            self.prev.insert(key, name);
        }
    }

    fn take_chunks(&mut self) -> u32 {
        1 // the naive matcher is one indivisible unit of match work
    }

    fn work(&self) -> WorkCounters {
        self.work
    }

    fn reset(&mut self) {
        self.prev.clear();
        self.names.restart();
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
            let mut ev = MatchEvents::new();
            m.drain_events(wm, &mut ev);
            ev.iter()
                .map(|e| match e {
                    MatchEvent::Insert { name, .. } => (true, name),
                    MatchEvent::Retract { name, .. } => (false, name),
                })
                .collect::<Vec<_>>()
        };
        assert!(drain(&mut m, &wm).is_empty(), "no join partner yet");

        let mut w2 = Wme::new(sym("b"), 1, 2);
        w2.set(0, Value::Int(1));
        let id2 = wm.add(w2);
        m.add_wme(id2, &wm);
        let ev = drain(&mut m, &wm);
        assert_eq!(ev, [(true, 0)], "one insert, the first name");

        m.remove_wme(id1, &wm);
        wm.remove(id1);
        let ev = drain(&mut m, &wm);
        assert_eq!(ev, [(false, 0)], "one retraction, of that name");

        // No change → no events.
        assert!(drain(&mut m, &wm).is_empty());

        // The name was given back with the retraction: the next insert
        // takes it.
        let mut w3 = Wme::new(sym("a"), 1, 3);
        w3.set(0, Value::Int(1));
        let id3 = wm.add(w3);
        m.add_wme(id3, &wm);
        assert_eq!(drain(&mut m, &wm), [(true, 0)]);
    }
}
