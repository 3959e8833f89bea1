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
//! net changes ([`crate::matcher::Matcher::drain_events`], applied by
//! [`ConflictSet::apply`]) — an instantiation that came and went inside one
//! RHS is never inserted, so everything ranked here was in the match when a
//! resolve step could have picked it.
//!
//! The set is indexed rather than scanned, and it owns what it holds: an
//! instantiation's WME list, time tags and LEX recency key are copied from
//! the event batch into the buffers of a slab slot, which keeps them when
//! the slot is vacated and reuses them for the next occupant, so a warm set
//! inserts, retracts and selects without allocating. A list of
//! `(primary tag, slot)` pairs kept sorted by `compare` under the active
//! strategy makes `select`/`peek` a pop of its last element; the primary
//! tag — the newest time tag under LEX, the first condition element's under
//! MEA — is the strategy's first criterion, carried inline so that most
//! steps of the binary search that places an insertion never read the slab.
//! In OPS5 the newest instantiation usually dominates, so insertions land at
//! or near the end of the sorted list.
//!
//! A retraction finds its slot by the name the matcher gave the
//! instantiation ([`crate::matcher`]'s naming contract), not by its
//! `(production, wmes)` key: a dense list indexed by name holds the first
//! slot of each name, and a slot links to the next slot of the same name —
//! a Rete token that reaches several terminals names one instantiation per
//! production. A retraction of a name the set does not hold removes
//! nothing: most name an instantiation `select` has already taken.

use crate::buckets::SlotCursor;
use crate::matcher::{MatchEvent, MatchEvents};
use crate::wme::{TimeTag, WmeId};
use std::cmp::Ordering;

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
/// condition elements, in condition-element order — owned, for whoever
/// keeps a match of its own (the naive matcher's result, the threaded
/// matcher's record of what it delivered). The engine's path never makes
/// one: events and the conflict set hand out [`InstRef`]s into their own
/// buffers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instantiation {
    /// Index of the production in the program.
    pub production: u32,
    /// Matched WMEs (positive condition elements, in order).
    pub wmes: Vec<WmeId>,
    /// Time tags of `wmes`, same order.
    pub time_tags: Vec<TimeTag>,
    /// The production's specificity (number of LHS tests).
    pub specificity: u32,
}

impl Instantiation {
    /// Builds an instantiation.
    pub fn new(
        production: u32,
        wmes: Vec<WmeId>,
        time_tags: Vec<TimeTag>,
        specificity: u32,
    ) -> Instantiation {
        Instantiation {
            production,
            wmes,
            time_tags,
            specificity,
        }
    }

    /// The instantiation borrowed.
    pub fn view(&self) -> InstRef<'_> {
        InstRef {
            production: self.production,
            wmes: &self.wmes,
            time_tags: &self.time_tags,
            specificity: self.specificity,
        }
    }
}

/// An instantiation borrowed from where it is kept: a conflict-set slot, an
/// event batch, an [`Instantiation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstRef<'a> {
    /// Index of the production in the program.
    pub production: u32,
    /// Matched WMEs (positive condition elements, in order).
    pub wmes: &'a [WmeId],
    /// Time tags of `wmes`, same order.
    pub time_tags: &'a [TimeTag],
    /// The production's specificity (number of LHS tests).
    pub specificity: u32,
}

impl From<InstRef<'_>> for Instantiation {
    fn from(i: InstRef<'_>) -> Instantiation {
        Instantiation::new(
            i.production,
            i.wmes.to_vec(),
            i.time_tags.to_vec(),
            i.specificity,
        )
    }
}

/// The end of a name's slot list.
const NONE: u32 = u32::MAX;

/// One slab slot: an occupant's lists, or — vacated — the buffers the next
/// occupant is copied into.
#[derive(Clone, Debug, Default)]
struct Entry {
    occupied: bool,
    production: u32,
    specificity: u32,
    /// The matcher's name for the occupant.
    name: u32,
    /// The next slot whose occupant has the same name, or [`NONE`].
    next: u32,
    wmes: Vec<WmeId>,
    time_tags: Vec<TimeTag>,
    /// The occupant's time tags sorted descending — the LEX recency key,
    /// computed once on insertion so comparisons are slice compares.
    recency: Vec<TimeTag>,
}

impl Entry {
    fn fill(&mut self, name: u32, inst: InstRef<'_>) {
        self.occupied = true;
        self.production = inst.production;
        self.specificity = inst.specificity;
        self.name = name;
        self.wmes.clear();
        self.wmes.extend_from_slice(inst.wmes);
        self.time_tags.clear();
        self.time_tags.extend_from_slice(inst.time_tags);
        self.recency.clear();
        self.recency.extend_from_slice(inst.time_tags);
        self.recency.sort_unstable_by(|a, b| b.cmp(a));
    }

    fn view(&self) -> InstRef<'_> {
        debug_assert!(self.occupied, "ranked slot is occupied");
        InstRef {
            production: self.production,
            wmes: &self.wmes,
            time_tags: &self.time_tags,
            specificity: self.specificity,
        }
    }

    /// The strategy's first criterion, which orders entries exactly where
    /// it differs ([`compare`] decides ties): the newest time tag under
    /// LEX, whose recency key is a slice compare that starts there, and
    /// the MEA dominance tag. A tagless instantiation (a production whose
    /// LHS binds no positive WMEs) has tag 0, which is *older than every
    /// real WME* — live time tags start at 1 — so under MEA it loses
    /// recency to any tagged rival and competes with other tagless
    /// instantiations on the remaining criteria (specificity, then the
    /// deterministic tie-breaks), as under LEX, where its empty tag list
    /// loses the length comparison the same way.
    fn primary(&self, strategy: Strategy) -> TimeTag {
        let tags = match strategy {
            Strategy::Lex => &self.recency,
            Strategy::Mea => &self.time_tags,
        };
        tags.first().copied().unwrap_or(0)
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
    /// Occupied slots with their [`Entry::primary`] tag under
    /// `rank_strategy`, ascending under [`compare`]: the last one is the
    /// dominant instantiation. Re-keyed and re-sorted when a different
    /// strategy is requested (engines use one for a whole run).
    rank: Vec<(TimeTag, u32)>,
    rank_strategy: Strategy,
    /// Name → the first occupied slot of that name, or [`NONE`]; as long as
    /// the highest name inserted since the set was created.
    by_name: Vec<u32>,
}

impl ConflictSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the set, keeping its allocations, at the cost of the slots
    /// handed out since the last clear. Slot numbers start over as in a new
    /// set ([`SlotCursor`]), and every name is free.
    pub fn clear(&mut self) {
        for e in &mut self.slab[..self.slots.high_water()] {
            if std::mem::take(&mut e.occupied) {
                self.by_name[e.name as usize] = NONE;
            }
        }
        self.slots.restart();
        self.rank.clear();
    }

    /// Number of instantiations present.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True when no instantiation is present (quiescence).
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// The slot of the instantiation of `production` named `name`.
    fn find(&self, name: u32, production: u32) -> Option<u32> {
        let mut slot = *self.by_name.get(name as usize)?;
        while slot != NONE {
            let e = &self.slab[slot as usize];
            if e.production == production {
                return Some(slot);
            }
            slot = e.next;
        }
        None
    }

    /// Takes `slot` off its name's list.
    fn unlink(&mut self, slot: u32) {
        let Entry { name, next, .. } = self.slab[slot as usize];
        let mut at = &mut self.by_name[name as usize];
        while *at != slot {
            let s = *at as usize;
            at = &mut self.slab[s].next;
        }
        *at = next;
    }

    /// Where `(tag, slot)` sits (or belongs) in `rank`: the order is total —
    /// `(production, wmes)` is the last tie-break and the set's key — so
    /// the partition point is the entry itself when it is ranked.
    fn rank_position(&self, (tag, slot): (TimeTag, u32)) -> usize {
        let (strategy, slab) = (self.rank_strategy, &self.slab);
        let e = &slab[slot as usize];
        self.rank.partition_point(|&(t, s)| {
            t < tag || t == tag && compare(strategy, &slab[s as usize], e) == Ordering::Less
        })
    }

    /// Vacates `slot`; the caller has already taken it out of `rank`.
    fn release(&mut self, slot: u32) {
        debug_assert!(self.slab[slot as usize].occupied, "ranked slot is occupied");
        self.unlink(slot);
        self.slab[slot as usize].occupied = false;
        self.slots.give(slot);
    }

    /// Adds an instantiation under the matcher's name for it, copying its
    /// lists into a slot. No instantiation of the same production may hold
    /// `name` ([`crate::matcher`]'s naming contract).
    pub fn insert(&mut self, name: u32, inst: InstRef<'_>) {
        debug_assert!(
            self.find(name, inst.production).is_none(),
            "name {name} is live for production {}",
            inst.production
        );
        let slot = self.slots.take();
        if slot as usize == self.slab.len() {
            self.slab.push(Entry::default());
        }
        if name as usize >= self.by_name.len() {
            self.by_name.resize(name as usize + 1, NONE);
        }
        let head = &mut self.by_name[name as usize];
        let e = &mut self.slab[slot as usize];
        e.fill(name, inst);
        e.next = std::mem::replace(head, slot);
        let key = (e.primary(self.rank_strategy), slot);
        let at = self.rank_position(key);
        self.rank.insert(at, key);
    }

    /// Removes the instantiation of `production` named `name`; returns
    /// true when it was present. One that is not — most often one
    /// [`select`](Self::select) has already taken — is left alone.
    pub fn remove(&mut self, name: u32, production: u32) -> bool {
        let Some(slot) = self.find(name, production) else {
            return false;
        };
        let key = (self.slab[slot as usize].primary(self.rank_strategy), slot);
        let at = self.rank_position(key);
        debug_assert_eq!(self.rank[at], key);
        self.rank.remove(at);
        self.release(slot);
        true
    }

    /// Applies a batch of match events in order: inserts and retractions.
    pub fn apply(&mut self, events: &MatchEvents) {
        for e in events.iter() {
            match e {
                MatchEvent::Insert { name, inst } => self.insert(name, inst),
                MatchEvent::Retract {
                    name, production, ..
                } => {
                    self.remove(name, production);
                }
            }
        }
    }

    /// Iterates over the instantiations (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = InstRef<'_>> {
        self.slab[..self.slots.high_water()]
            .iter()
            .filter(|e| e.occupied)
            .map(Entry::view)
    }

    /// Selects the dominant instantiation under `strategy` and removes it
    /// from the set (OPS5 refraction): its WMEs are copied into `wmes`
    /// (replacing what it held) and its production is returned. `None` at
    /// quiescence, `wmes` untouched.
    pub fn select(&mut self, strategy: Strategy, wmes: &mut Vec<WmeId>) -> Option<u32> {
        if strategy != self.rank_strategy {
            self.rank_strategy = strategy;
            let slab = &self.slab;
            for (tag, slot) in &mut self.rank {
                *tag = slab[*slot as usize].primary(strategy);
            }
            self.rank.sort_unstable_by(|&(ta, a), &(tb, b)| {
                ta.cmp(&tb)
                    .then_with(|| compare(strategy, &slab[a as usize], &slab[b as usize]))
            });
        }
        let (_, slot) = self.rank.pop()?;
        let e = &self.slab[slot as usize];
        wmes.clear();
        wmes.extend_from_slice(&e.wmes);
        let production = e.production;
        self.release(slot);
        Some(production)
    }

    /// The instantiation [`select`](Self::select) would take, left in
    /// place. When `strategy` differs from the one the set is currently
    /// ranked by, this falls back to a linear maximum under `compare`;
    /// `select` re-ranks instead.
    pub fn peek(&self, strategy: Strategy) -> Option<InstRef<'_>> {
        let top = if strategy == self.rank_strategy {
            self.rank.last().map(|&(_, s)| &self.slab[s as usize])
        } else {
            self.slab[..self.slots.high_water()]
                .iter()
                .filter(|e| e.occupied)
                .max_by(|a, b| compare(strategy, a, b))
        };
        top.map(Entry::view)
    }
}

/// Total order used for resolution; `Greater` means "dominates". The
/// executable specification: the ranking is kept with it (after the inline
/// [`Entry::primary`] tag, which agrees with it wherever the tags differ),
/// and strategy-mismatched `peek`s scan with it.
fn compare(strategy: Strategy, a: &Entry, b: &Entry) -> Ordering {
    if strategy == Strategy::Mea {
        match a.primary(Strategy::Mea).cmp(&b.primary(Strategy::Mea)) {
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
    match a.specificity.cmp(&b.specificity) {
        Ordering::Equal => {}
        other => return other,
    }
    // Deterministic final tie-break: lower production index, then wmes.
    match b.production.cmp(&a.production) {
        Ordering::Equal => {}
        other => return other,
    }
    b.wmes.cmp(&a.wmes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop, prop_assert, prop_assert_eq, prop_oneof, proptest};
    use proptest::Strategy as Generator;

    fn inst(prod: u32, tags: &[TimeTag], spec: u32) -> Instantiation {
        Instantiation::new(
            prod,
            tags.iter().map(|&t| WmeId(t as u32)).collect(),
            tags.into(),
            spec,
        )
    }

    fn insert(cs: &mut ConflictSet, name: u32, prod: u32, tags: &[TimeTag], spec: u32) {
        cs.insert(name, inst(prod, tags, spec).view());
    }

    fn select(cs: &mut ConflictSet, s: Strategy) -> Option<u32> {
        cs.select(s, &mut Vec::new())
    }

    #[test]
    fn lex_prefers_recency() {
        let mut cs = ConflictSet::new();
        insert(&mut cs, 0, 0, &[1, 2], 1);
        insert(&mut cs, 1, 1, &[1, 5], 1);
        let mut wmes = vec![WmeId(9)];
        assert_eq!(cs.select(Strategy::Lex, &mut wmes), Some(1));
        assert_eq!(wmes, [WmeId(1), WmeId(5)], "the winner's WMEs, replacing");
        assert_eq!(cs.len(), 1, "selection removes (refraction)");
    }

    #[test]
    fn lex_ties_break_on_length_then_specificity() {
        let mut cs = ConflictSet::new();
        insert(&mut cs, 0, 0, &[5], 1);
        insert(&mut cs, 1, 1, &[5, 3], 1); // longer with equal prefix wins
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);

        let mut cs = ConflictSet::new();
        insert(&mut cs, 0, 0, &[5, 3], 1);
        insert(&mut cs, 1, 1, &[5, 3], 9); // higher specificity wins
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);
    }

    #[test]
    fn mea_dominates_on_first_ce_tag() {
        let mut cs = ConflictSet::new();
        insert(&mut cs, 0, 0, &[9, 1], 1); // first CE tag 9
        insert(&mut cs, 1, 1, &[2, 100], 1); // more recent overall, older first CE
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
        insert(&mut cs, 0, 0, &[], 9); // tagless, more specific
        insert(&mut cs, 1, 1, &[1], 1); // oldest possible real tag
        assert_eq!(cs.peek(Strategy::Mea).unwrap().production, 1);
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);

        // Two tagless instantiations fall through to specificity and the
        // production-index tie-break, deterministically.
        let mut cs = ConflictSet::new();
        insert(&mut cs, 0, 3, &[], 2);
        insert(&mut cs, 1, 4, &[], 5);
        assert_eq!(select(&mut cs, Strategy::Mea), Some(4));
        assert_eq!(select(&mut cs, Strategy::Mea), Some(3));
    }

    #[test]
    fn selection_is_deterministic_under_full_ties() {
        // One name for both: a Rete token at two terminals.
        let mut cs = ConflictSet::new();
        insert(&mut cs, 0, 2, &[5, 3], 4);
        insert(&mut cs, 0, 1, &[5, 3], 4);
        // Lower production index dominates as the final tie-break.
        assert_eq!(select(&mut cs, Strategy::Lex), Some(1));
        assert_eq!(select(&mut cs, Strategy::Lex), Some(2));
        let mut wmes = vec![WmeId(7)];
        assert_eq!(cs.select(Strategy::Lex, &mut wmes), None);
        assert_eq!(wmes, [WmeId(7)], "quiescence leaves the buffer alone");
    }

    #[test]
    fn a_retraction_of_a_fired_name_is_a_no_op() {
        let mut cs = ConflictSet::new();
        insert(&mut cs, 4, 0, &[1], 1);
        assert_eq!(select(&mut cs, Strategy::Lex), Some(0));
        assert!(!cs.remove(4, 0), "fired: nothing to remove");
        assert!(!cs.remove(9, 0), "a name never given: nothing either");
        // Retracted, the name may name the next instantiation.
        insert(&mut cs, 4, 0, &[2], 1);
        // A name shared by two productions loses only the fired one.
        insert(&mut cs, 7, 1, &[3], 1);
        insert(&mut cs, 7, 2, &[1, 3], 1);
        assert_eq!(select(&mut cs, Strategy::Lex), Some(2));
        assert!(!cs.remove(7, 2));
        assert_eq!(cs.len(), 2);
        assert!(cs.remove(7, 1));
        assert!(cs.remove(4, 0));
        assert!(cs.is_empty());
        assert!(cs.by_name.iter().all(|&s| s == NONE), "{:?}", cs.by_name);
    }

    #[test]
    fn strategy_switch_rekeys_the_rank_index() {
        let mut cs = ConflictSet::new();
        insert(&mut cs, 0, 0, &[9, 1], 1);
        insert(&mut cs, 1, 1, &[2, 100], 1);
        // LEX first (default index), then MEA (forces a rebuild), then LEX.
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);
        assert_eq!(select(&mut cs, Strategy::Mea), Some(0));
        assert_eq!(select(&mut cs, Strategy::Lex), Some(1));
        assert!(cs.is_empty());
    }

    #[test]
    fn clear_keeps_the_slots_and_hands_them_out_from_the_start() {
        let mut cs = ConflictSet::new();
        insert(&mut cs, 0, 0, &[1, 2], 1);
        insert(&mut cs, 1, 1, &[3], 1);
        select(&mut cs, Strategy::Mea);
        cs.clear();
        assert!(cs.is_empty() && cs.iter().next().is_none());
        assert_eq!(cs.peek(Strategy::Mea), None);
        assert_eq!(cs.slab.len(), 2);
        let kept = cs.slab[0].wmes.capacity();
        assert_eq!(cs.by_name, [NONE, NONE], "every name is free");
        insert(&mut cs, 2, 2, &[7], 1);
        assert!(cs.slab[0].occupied, "slot 0 first, as in a new set");
        assert_eq!(cs.slab[0].wmes.capacity(), kept, "into its old buffers");
        assert!(!cs.remove(1, 1), "old names are gone");
        assert_eq!(select(&mut cs, Strategy::Lex), Some(2));
    }

    /// One step of a random conflict-set history, as a matcher writes it.
    #[derive(Clone, Debug)]
    enum Op {
        /// Insert under a name; skipped where the naming contract forbids
        /// it (the name is live for the production, or the key is live).
        Insert(u32, Instantiation),
        /// Retract the `n`-th live instantiation (ranked, or selected).
        Remove(usize),
        Select(Strategy),
    }

    fn op() -> impl Generator<Value = Op> {
        // Few distinct names, WMEs, tags and productions, so histories are
        // full of ties, reused names, names shared between productions,
        // equal tag multisets in different orders and one WME matching
        // several condition elements.
        let inst = (0u32..4, prop::collection::vec(1u64..6, 0..4), 0u32..3).prop_map(
            |(production, tags, specificity)| {
                let wmes: Vec<WmeId> = tags.iter().map(|&t| WmeId((t % 4) as u32)).collect();
                Instantiation::new(production, wmes, tags, specificity)
            },
        );
        let strategy = (0usize..2).prop_map(|m| [Strategy::Lex, Strategy::Mea][m]);
        prop_oneof![
            5 => (0u32..6, inst).prop_map(|(name, i)| Op::Insert(name, i)),
            2 => (0usize..64).prop_map(Op::Remove),
            2 => strategy.prop_map(Op::Select),
        ]
    }

    proptest! {
        /// The order proof: the set against a plain list searched with
        /// `compare`, fed a history that keeps the naming contract. Whatever
        /// the history — reused names, one name on several productions,
        /// retractions of selected instantiations, the strategy switching
        /// between selections — both hold the same instantiations and name
        /// the same winner, every rank entry carries its slot's primary tag
        /// under the strategy the set is ranked by, in strictly ascending
        /// order, and every occupied slot is on its name's list once.
        #[test]
        fn ranking_agrees_with_a_linear_scan_under_compare(
            ops in prop::collection::vec(op(), 1..48),
        ) {
            let entry = |name: u32, i: &Instantiation| {
                let mut e = Entry::default();
                e.fill(name, i.view());
                e
            };
            let best = |model: &[Entry], s| {
                (0..model.len()).max_by(|&a, &b| compare(s, &model[a], &model[b]))
            };
            let key = |i: InstRef<'_>| (i.production, i.wmes.to_vec());
            let (mut cs, mut model) = (ConflictSet::new(), Vec::new());
            // What the matcher has inserted and not retracted: `model`, and
            // what `select` took.
            let mut live: Vec<(u32, u32, Vec<WmeId>)> = Vec::new();
            let mut picked = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(name, i) => {
                        let clash = |&(n, p, ref w): &(u32, u32, Vec<WmeId>)| {
                            p == i.production && (n == name || *w == i.wmes)
                        };
                        if !live.iter().any(clash) {
                            model.push(entry(name, &i));
                            cs.insert(name, i.view());
                            live.push((name, i.production, i.wmes));
                        }
                    }
                    Op::Remove(n) if !live.is_empty() => {
                        let (name, production, _) = live.swap_remove(n % live.len());
                        let before = model.len();
                        model.retain(|e| (e.name, e.production) != (name, production));
                        prop_assert_eq!(cs.remove(name, production), model.len() < before);
                    }
                    Op::Remove(_) => {}
                    Op::Select(s) => {
                        let want = best(&model, s).map(|at| model.swap_remove(at));
                        let got = cs.select(s, &mut picked);
                        let want = want.map(|e| (e.production, e.wmes));
                        prop_assert_eq!(got.map(|p| (p, picked.clone())), want);
                    }
                }
                // One of the two is the ranked strategy, the other scans.
                for s in [Strategy::Lex, Strategy::Mea] {
                    prop_assert_eq!(cs.peek(s), best(&model, s).map(|at| model[at].view()));
                }
                let ranked = cs.rank_strategy;
                for &(tag, slot) in &cs.rank {
                    let e = &cs.slab[slot as usize];
                    prop_assert!(e.occupied);
                    prop_assert_eq!(tag, e.primary(ranked));
                }
                for pair in cs.rank.windows(2) {
                    let [(ta, a), (tb, b)] = [pair[0], pair[1]];
                    let (ea, eb) = (&cs.slab[a as usize], &cs.slab[b as usize]);
                    prop_assert!(ta <= tb);
                    prop_assert_eq!(compare(ranked, ea, eb), Ordering::Less);
                }
                let mut linked = 0;
                for (name, &head) in cs.by_name.iter().enumerate() {
                    let mut slot = head;
                    while slot != NONE {
                        let e = &cs.slab[slot as usize];
                        prop_assert!(e.occupied);
                        prop_assert_eq!(e.name as usize, name);
                        linked += 1;
                        slot = e.next;
                    }
                }
                prop_assert_eq!(linked, cs.len());
                let mut have: Vec<_> = cs.iter().map(key).collect();
                let mut want: Vec<_> = model.iter().map(|e| key(e.view())).collect();
                have.sort();
                want.sort();
                prop_assert_eq!(have, want);
                prop_assert_eq!(cs.len(), model.len());
            }
        }
    }
}
