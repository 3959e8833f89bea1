//! The conflict set and OPS5's conflict-resolution strategies.
//!
//! OPS5's recognize–act cycle requires a *resolve* step that picks one
//! instantiation from the set of all satisfied productions. This global
//! synchronisation is the first reason the paper gives for the limits of
//! match parallelism (§3.1): match can be parallelised *within* a cycle, but
//! resolution serialises the cycle boundary. SPAM/PSM escapes it by running
//! many independent engines, each with its own conflict set.
//!
//! That boundary is the only place the set is written from the match: the
//! engine feeds it once per firing, when the RHS has run, with the matcher's
//! net changes ([`crate::matcher::Matcher::drain_events`]) — an
//! instantiation that came and went inside one RHS is never inserted, so
//! everything ranked here was in the match when a resolve step could have
//! picked it.
//!
//! The set is indexed rather than scanned, and an instantiation is stored
//! once: entries live in a slab whose slots keep their buffers when reused,
//! a list of slot numbers kept sorted by [`compare`] under the active
//! strategy makes `select`/`peek` a pop of its last element, and a hash of
//! `(production, wmes)` finds the slot to retract. In OPS5 the newest
//! instantiation usually dominates, so insertions land at or near the end
//! of the sorted list.

use crate::buckets::{hash_words, Buckets, Pool, SlotCursor};
use crate::wme::{TimeTag, WmeId};
use std::cmp::Ordering;
use std::sync::Arc;

/// Conflict-resolution strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// LEX: refraction, then recency over all time tags, then specificity.
    #[default]
    Lex,
    /// MEA: like LEX but the recency of the WME matching the *first*
    /// condition element dominates (suits goal-directed programs).
    Mea,
}

/// An instantiation: a production plus the WMEs matching its positive
/// condition elements, in condition-element order.
///
/// The two lists are shared, not copied: a Rete token that reaches several
/// terminals emits them all, and later their retractions, from one pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instantiation {
    /// Index of the production in the program.
    pub production: u32,
    /// Matched WMEs (positive condition elements, in order).
    pub wmes: Arc<[WmeId]>,
    /// Time tags of `wmes`, same order.
    pub time_tags: Arc<[TimeTag]>,
    /// The production's specificity (number of LHS tests).
    pub specificity: u32,
}

impl Instantiation {
    /// Builds an instantiation.
    pub fn new(
        production: u32,
        wmes: Arc<[WmeId]>,
        time_tags: Arc<[TimeTag]>,
        specificity: u32,
    ) -> Instantiation {
        Instantiation {
            production,
            wmes,
            time_tags,
            specificity,
        }
    }

    /// The MEA dominance key: the time tag of the WME matching the first
    /// condition element. A tagless instantiation (a production whose LHS
    /// binds no positive WMEs) uses tag 0, which is *older than every real
    /// WME* — live time tags start at 1 — so under MEA it loses recency to
    /// any tagged rival and competes with other tagless instantiations on
    /// the remaining criteria (specificity, then the deterministic
    /// tie-breaks). This matches LEX, where its empty tag list loses the
    /// length comparison the same way.
    fn mea_tag(&self) -> TimeTag {
        self.time_tags.first().copied().unwrap_or(0)
    }
}

/// One slab slot. A free slot has no instantiation; its `recency` buffer
/// stays for the next occupant.
#[derive(Clone, Debug, Default)]
struct Entry {
    inst: Option<Instantiation>,
    /// The occupant's time tags sorted descending — the LEX recency key,
    /// computed once on insertion so comparisons are slice compares.
    recency: Vec<TimeTag>,
}

impl Entry {
    fn fill(&mut self, inst: Instantiation) {
        self.recency.clear();
        self.recency.extend_from_slice(&inst.time_tags);
        self.recency.sort_unstable_by(|a, b| b.cmp(a));
        self.inst = Some(inst);
    }

    fn inst(&self) -> &Instantiation {
        self.inst.as_ref().expect("ranked slot is occupied")
    }
}

/// The conflict set: all currently satisfied, unfired instantiations.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    /// Slots below `slots.high_water()` have been handed out since the set
    /// was created or last cleared; those above keep an earlier run's
    /// buffers.
    slab: Vec<Entry>,
    slots: SlotCursor,
    /// Occupied slots, ascending under [`compare`] with `rank_strategy`:
    /// the last one is the dominant instantiation. Re-sorted when a
    /// different strategy is requested (engines use one for a whole run).
    rank: Vec<u32>,
    rank_strategy: Strategy,
    /// [`key_hash`] → the slots whose key hashes there (one, but for
    /// collisions, which the lookup resolves against the slab).
    by_key: Buckets<u64, u32>,
    pool: Pool<u32>,
}

/// Hash of an entry key, `(production, wmes)`.
fn key_hash(production: u32, wmes: &[WmeId]) -> u64 {
    hash_words(std::iter::once(production).chain(wmes.iter().map(|w| w.0)))
}

impl ConflictSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the set, keeping its allocations, at the cost of the slots
    /// handed out since the last clear. Slot numbers start over as in a new
    /// set ([`SlotCursor`]).
    pub fn clear(&mut self) {
        for e in &mut self.slab[..self.slots.high_water()] {
            e.inst = None;
        }
        self.slots.restart();
        self.rank.clear();
        self.by_key.clear_into(&mut self.pool);
    }

    /// Number of instantiations present.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True when no instantiation is present (quiescence).
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    fn find(&self, production: u32, wmes: &[WmeId]) -> Option<u32> {
        let slots = self.by_key.get(key_hash(production, wmes));
        slots.iter().copied().find(|&s| {
            let i = self.slab[s as usize].inst();
            i.production == production && *i.wmes == *wmes
        })
    }

    /// Where `slot` sits (or belongs) in `rank`: the order is total —
    /// `(production, wmes)` is the last tie-break and the set's key — so
    /// the partition point is the entry itself when it is ranked.
    fn rank_position(&self, slot: u32) -> usize {
        let e = &self.slab[slot as usize];
        self.rank.partition_point(|&s| {
            compare(self.rank_strategy, &self.slab[s as usize], e) == Ordering::Less
        })
    }

    /// Vacates `slot`, returning its instantiation; the caller has already
    /// taken it out of `rank`.
    fn release(&mut self, slot: u32) -> Instantiation {
        let inst = self.slab[slot as usize]
            .inst
            .take()
            .expect("ranked slot is occupied");
        let hash = key_hash(inst.production, &inst.wmes);
        self.by_key.remove_item(hash, slot, &mut self.pool);
        self.slots.give(slot);
        inst
    }

    /// Adds an instantiation (idempotent for identical keys).
    pub fn insert(&mut self, inst: Instantiation) {
        self.remove(inst.production, &inst.wmes);
        let hash = key_hash(inst.production, &inst.wmes);
        let slot = self.slots.take();
        if slot as usize == self.slab.len() {
            self.slab.push(Entry::default());
        }
        self.slab[slot as usize].fill(inst);
        self.by_key.push(hash, slot, &mut self.pool);
        let at = self.rank_position(slot);
        self.rank.insert(at, slot);
    }

    /// Removes an instantiation by key; returns true when present.
    pub fn remove(&mut self, production: u32, wmes: &[WmeId]) -> bool {
        let Some(slot) = self.find(production, wmes) else {
            return false;
        };
        let at = self.rank_position(slot);
        debug_assert_eq!(self.rank[at], slot);
        self.rank.remove(at);
        self.release(slot);
        true
    }

    /// Iterates over the instantiations (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.slab[..self.slots.high_water()]
            .iter()
            .filter_map(|e| e.inst.as_ref())
    }

    /// Selects the dominant instantiation under `strategy` and removes it
    /// from the set (OPS5 refraction). Returns `None` at quiescence.
    pub fn select(&mut self, strategy: Strategy) -> Option<Instantiation> {
        if strategy != self.rank_strategy {
            self.rank_strategy = strategy;
            let slab = &self.slab;
            self.rank
                .sort_unstable_by(|&a, &b| compare(strategy, &slab[a as usize], &slab[b as usize]));
        }
        let slot = self.rank.pop()?;
        Some(self.release(slot))
    }

    /// Like [`select`](Self::select) but leaves the instantiation in place.
    /// When `strategy` differs from the one the set is currently ranked
    /// by, this falls back to a linear maximum under [`compare`]; `select`
    /// re-ranks instead.
    pub fn peek(&self, strategy: Strategy) -> Option<&Instantiation> {
        let top = if strategy == self.rank_strategy {
            self.rank.last().map(|&s| &self.slab[s as usize])
        } else {
            self.slab[..self.slots.high_water()]
                .iter()
                .filter(|e| e.inst.is_some())
                .max_by(|a, b| compare(strategy, a, b))
        };
        top.map(Entry::inst)
    }
}

/// Total order used for resolution; `Greater` means "dominates". The
/// executable specification: the ranking is kept with it, and
/// strategy-mismatched `peek`s scan with it.
fn compare(strategy: Strategy, a: &Entry, b: &Entry) -> Ordering {
    let (ia, ib) = (a.inst(), b.inst());
    if strategy == Strategy::Mea {
        match ia.mea_tag().cmp(&ib.mea_tag()) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    // LEX recency: compare the sorted-descending tag slices. Slice
    // ordering is lexicographic with length as the final criterion, which
    // is exactly the LEX rule (an equal prefix with more tags dominates).
    match a.recency.cmp(&b.recency) {
        Ordering::Equal => {}
        other => return other,
    }
    match ia.specificity.cmp(&ib.specificity) {
        Ordering::Equal => {}
        other => return other,
    }
    // Deterministic final tie-break: lower production index, then wmes.
    match ib.production.cmp(&ia.production) {
        Ordering::Equal => {}
        other => return other,
    }
    ib.wmes.cmp(&ia.wmes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop, prop_assert_eq, prop_oneof, proptest};
    use proptest::Strategy as Generator;

    fn inst(prod: u32, tags: &[TimeTag], spec: u32) -> Instantiation {
        Instantiation::new(
            prod,
            tags.iter().map(|&t| WmeId(t as u32)).collect(),
            tags.into(),
            spec,
        )
    }

    #[test]
    fn lex_prefers_recency() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1, 2], 1));
        cs.insert(inst(1, &[1, 5], 1));
        let w = cs.select(Strategy::Lex).unwrap();
        assert_eq!(w.production, 1);
        assert_eq!(cs.len(), 1, "selection removes (refraction)");
    }

    #[test]
    fn lex_ties_break_on_length_then_specificity() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[5], 1));
        cs.insert(inst(1, &[5, 3], 1)); // longer with equal prefix wins
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);

        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[5, 3], 1));
        cs.insert(inst(1, &[5, 3], 9)); // higher specificity wins
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);
    }

    #[test]
    fn mea_dominates_on_first_ce_tag() {
        let a = inst(0, &[9, 1], 1); // first CE tag 9
        let b = inst(1, &[2, 100], 1); // more recent overall, older first CE
        let mut cs = ConflictSet::new();
        cs.insert(a);
        cs.insert(b);
        assert_eq!(cs.peek(Strategy::Mea).unwrap().production, 0);
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);
    }

    #[test]
    fn mea_treats_tagless_as_oldest() {
        // Regression for the `first().unwrap_or(0)` edge: a tagless
        // instantiation ranks as first-CE tag 0, older than every live WME
        // (tags start at 1) — it must lose to ANY tagged rival, even one
        // with tag 1, under both strategies.
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[], 9)); // tagless, more specific
        cs.insert(inst(1, &[1], 1)); // oldest possible real tag
        assert_eq!(cs.peek(Strategy::Mea).unwrap().production, 1);
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);

        // Two tagless instantiations fall through to specificity and the
        // production-index tie-break, deterministically.
        let mut cs = ConflictSet::new();
        cs.insert(inst(3, &[], 2));
        cs.insert(inst(4, &[], 5));
        assert_eq!(cs.select(Strategy::Mea).unwrap().production, 4);
        assert_eq!(cs.select(Strategy::Mea).unwrap().production, 3);
    }

    #[test]
    fn selection_is_deterministic_under_full_ties() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(2, &[5, 3], 4));
        cs.insert(inst(1, &[5, 3], 4));
        // Lower production index dominates as the final tie-break.
        assert_eq!(cs.select(Strategy::Lex).unwrap().production, 1);
        assert_eq!(cs.select(Strategy::Lex).unwrap().production, 2);
        assert!(cs.select(Strategy::Lex).is_none());
    }

    #[test]
    fn insert_is_idempotent() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1], 1));
        cs.insert(inst(0, &[1], 1));
        assert_eq!(cs.len(), 1);
        assert!(cs.remove(0, &[WmeId(1)]));
        assert!(!cs.remove(0, &[WmeId(1)]));
    }

    #[test]
    fn strategy_switch_rekeys_the_rank_index() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[9, 1], 1));
        cs.insert(inst(1, &[2, 100], 1));
        // LEX first (default index), then MEA (forces a rebuild), then LEX.
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);
        assert_eq!(cs.select(Strategy::Mea).unwrap().production, 0);
        assert_eq!(cs.select(Strategy::Lex).unwrap().production, 1);
        assert!(cs.is_empty());
    }

    #[test]
    fn clear_keeps_the_slots_and_hands_them_out_from_the_start() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1, 2], 1));
        cs.insert(inst(1, &[3], 1));
        cs.select(Strategy::Mea);
        cs.clear();
        assert!(cs.is_empty() && cs.iter().next().is_none());
        assert_eq!(cs.peek(Strategy::Mea), None);
        assert_eq!(cs.slab.len(), 2);
        cs.insert(inst(2, &[7], 1));
        assert!(cs.slab[0].inst.is_some(), "slot 0 first, as in a new set");
        assert!(!cs.remove(0, &[WmeId(1), WmeId(2)]), "old keys are gone");
        assert_eq!(cs.select(Strategy::Lex).unwrap().production, 2);
    }

    /// One step of a random conflict-set history.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(Instantiation),
        /// Remove the key of the `n`-th instantiation inserted so far
        /// (present or not).
        Remove(usize),
        Select(Strategy),
    }

    fn op() -> impl Generator<Value = Op> {
        // Few distinct WMEs, tags and productions, so histories are full of
        // ties, re-inserted keys, equal tag multisets in different orders
        // and one WME matching several condition elements.
        let inst = (0u32..4, prop::collection::vec(1u64..6, 0..4), 0u32..3).prop_map(
            |(production, tags, specificity)| {
                let wmes: Vec<WmeId> = tags.iter().map(|&t| WmeId((t % 4) as u32)).collect();
                Instantiation::new(production, wmes.into(), tags.into(), specificity)
            },
        );
        let strategy = (0usize..2).prop_map(|m| [Strategy::Lex, Strategy::Mea][m]);
        prop_oneof![
            5 => inst.prop_map(Op::Insert),
            2 => (0usize..64).prop_map(Op::Remove),
            2 => strategy.prop_map(Op::Select),
        ]
    }

    proptest! {
        /// The order proof: the set against a plain list searched with
        /// `compare`. Whatever the history — re-inserted keys, removals of
        /// absent keys, the strategy switching between selections — both
        /// hold the same instantiations and name the same winner.
        #[test]
        fn ranking_agrees_with_a_linear_scan_under_compare(
            ops in prop::collection::vec(op(), 1..48),
        ) {
            let best = |model: &[Entry], s| {
                (0..model.len()).max_by(|&a, &b| compare(s, &model[a], &model[b]))
            };
            let drop_key = |model: &mut Vec<Entry>, k: &Instantiation| {
                let before = model.len();
                model.retain(|e| (e.inst().production, &e.inst().wmes) != (k.production, &k.wmes));
                model.len() < before
            };
            let key = |i: &Instantiation| (i.production, i.wmes.to_vec());
            let (mut cs, mut model, mut seen) = (ConflictSet::new(), Vec::new(), Vec::new());
            for op in ops {
                match op {
                    Op::Insert(i) => {
                        drop_key(&mut model, &i);
                        model.push(Entry::default());
                        model.last_mut().unwrap().fill(i.clone());
                        seen.push(i.clone());
                        cs.insert(i);
                    }
                    Op::Remove(n) if !seen.is_empty() => {
                        let k: &Instantiation = &seen[n % seen.len()];
                        prop_assert_eq!(cs.remove(k.production, &k.wmes), drop_key(&mut model, k));
                    }
                    Op::Remove(_) => {}
                    Op::Select(s) => {
                        let want = best(&model, s).map(|at| model.swap_remove(at));
                        let got = cs.select(s);
                        prop_assert_eq!(got.as_ref(), want.as_ref().map(Entry::inst));
                    }
                }
                // One of the two is the ranked strategy, the other scans.
                for s in [Strategy::Lex, Strategy::Mea] {
                    prop_assert_eq!(cs.peek(s), best(&model, s).map(|at| model[at].inst()));
                }
                let mut have: Vec<_> = cs.iter().map(key).collect();
                let mut want: Vec<_> = model.iter().map(|e| key(e.inst())).collect();
                have.sort();
                want.sort();
                prop_assert_eq!(have, want);
                prop_assert_eq!(cs.len(), model.len());
            }
        }
    }
}
