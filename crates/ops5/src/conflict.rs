//! The conflict set and OPS5's conflict-resolution strategies.
//!
//! OPS5's recognize–act cycle requires a *resolve* step that picks one
//! instantiation from the set of all satisfied productions. This global
//! synchronisation is the first reason the paper gives for the limits of
//! match parallelism (§3.1): match can be parallelised *within* a cycle, but
//! resolution serialises the cycle boundary. SPAM/PSM escapes it by running
//! many independent engines, each with its own conflict set.
//!
//! The set is indexed rather than scanned: each instantiation caches its
//! descending time-tag key at construction, a `BTreeSet` of rank keys keeps
//! the entries ordered under the active strategy (so `select`/`peek` are a
//! tree lookup, not a full scan with per-comparison allocation), and a
//! WME→keys map makes `retract_wme` touch only the affected entries.

use crate::ast::Production;
use crate::wme::{TimeTag, WmeId};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, HashMap};

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
/// Construct through [`Instantiation::new`] (or
/// [`make_instantiation`]), which caches the descending time-tag key the
/// resolution order compares — the cache is what keeps `select` free of
/// per-comparison sorting and allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instantiation {
    /// Index of the production in the program.
    pub production: u32,
    /// Matched WMEs (positive condition elements, in order).
    pub wmes: Box<[WmeId]>,
    /// Time tags of `wmes`, same order.
    pub time_tags: Box<[TimeTag]>,
    /// The production's specificity (number of LHS tests).
    pub specificity: u32,
    /// `time_tags` sorted descending — the LEX recency key, cached at
    /// construction so comparisons are slice compares.
    sorted_tags: Box<[TimeTag]>,
}

impl Instantiation {
    /// Builds an instantiation, caching its descending-tag recency key.
    pub fn new(
        production: u32,
        wmes: Box<[WmeId]>,
        time_tags: Box<[TimeTag]>,
        specificity: u32,
    ) -> Instantiation {
        let mut sorted_tags = time_tags.clone();
        sorted_tags.sort_unstable_by(|a, b| b.cmp(a));
        Instantiation {
            production,
            wmes,
            time_tags,
            specificity,
            sorted_tags,
        }
    }

    /// Time tags sorted descending (the LEX comparison key).
    pub fn sorted_tags(&self) -> &[TimeTag] {
        &self.sorted_tags
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

/// Entry key: production index plus matched WMEs.
type Key = (u32, Box<[WmeId]>);

/// Rank-index key. Field order mirrors [`compare`]: MEA first-CE tag (0
/// under LEX), descending time tags (slice order = lexicographic, then
/// length — exactly the LEX recency rule), specificity, then the
/// deterministic tie-breaks (lower production index, then `wmes`) inverted
/// so the *maximum* rank key is the dominant instantiation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RankKey {
    mea: TimeTag,
    tags: Box<[TimeTag]>,
    specificity: u32,
    production: Reverse<u32>,
    wmes: Reverse<Box<[WmeId]>>,
}

fn rank_key(strategy: Strategy, inst: &Instantiation) -> RankKey {
    RankKey {
        mea: match strategy {
            Strategy::Mea => inst.mea_tag(),
            Strategy::Lex => 0,
        },
        tags: inst.sorted_tags.clone(),
        specificity: inst.specificity,
        production: Reverse(inst.production),
        wmes: Reverse(inst.wmes.clone()),
    }
}

/// The conflict set: all currently satisfied, unfired instantiations.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    entries: HashMap<Key, Instantiation>,
    /// Rank index under `rank_strategy`; rebuilt lazily when a different
    /// strategy is requested (engines use one strategy for a whole run).
    rank: BTreeSet<RankKey>,
    rank_strategy: Strategy,
    /// WME → keys of the entries whose match includes it.
    by_wme: HashMap<WmeId, Vec<Key>>,
}

impl ConflictSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the set, keeping its allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.rank.clear();
        self.by_wme.clear();
    }

    /// Number of instantiations present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no instantiation is present (quiescence).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds an instantiation (idempotent for identical keys).
    pub fn insert(&mut self, inst: Instantiation) {
        let key = (inst.production, inst.wmes.clone());
        if let Some(old) = self.entries.remove(&key) {
            self.unlink(&key, &old);
        }
        self.rank.insert(rank_key(self.rank_strategy, &inst));
        for (i, &w) in inst.wmes.iter().enumerate() {
            // Register each WME once even when it matches several CEs.
            if !inst.wmes[..i].contains(&w) {
                self.by_wme.entry(w).or_default().push(key.clone());
            }
        }
        self.entries.insert(key, inst);
    }

    /// Removes an instantiation by key; returns true when present.
    pub fn remove(&mut self, production: u32, wmes: &[WmeId]) -> bool {
        let key: Key = (production, wmes.into());
        match self.entries.remove(&key) {
            Some(inst) => {
                self.unlink(&key, &inst);
                true
            }
            None => false,
        }
    }

    /// Removes every instantiation whose match includes `wme` (via the
    /// WME→keys index — only the affected entries are touched).
    pub fn retract_wme(&mut self, wme: WmeId) {
        let Some(keys) = self.by_wme.remove(&wme) else {
            return;
        };
        for key in keys {
            if let Some(inst) = self.entries.remove(&key) {
                self.rank.remove(&rank_key(self.rank_strategy, &inst));
                for (i, &w) in inst.wmes.iter().enumerate() {
                    if w != wme && !inst.wmes[..i].contains(&w) {
                        unindex(&mut self.by_wme, w, &key);
                    }
                }
            }
        }
    }

    /// Iterates over the instantiations (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.entries.values()
    }

    /// Selects the dominant instantiation under `strategy` and removes it
    /// from the set (OPS5 refraction). Returns `None` at quiescence.
    pub fn select(&mut self, strategy: Strategy) -> Option<Instantiation> {
        self.ensure_rank(strategy);
        let top = self.rank.pop_last()?;
        let key: Key = (top.production.0, top.wmes.0);
        let inst = self
            .entries
            .remove(&key)
            .expect("rank index entry has a backing instantiation");
        for (i, &w) in inst.wmes.iter().enumerate() {
            if !inst.wmes[..i].contains(&w) {
                unindex(&mut self.by_wme, w, &key);
            }
        }
        Some(inst)
    }

    /// Like [`select`](Self::select) but leaves the instantiation in place.
    /// When `strategy` differs from the one the rank index currently uses,
    /// this falls back to a linear maximum (still allocation-free thanks to
    /// the cached tag keys); `select` re-keys the index instead.
    pub fn peek(&self, strategy: Strategy) -> Option<&Instantiation> {
        if strategy == self.rank_strategy && self.rank.len() == self.entries.len() {
            let top = self.rank.last()?;
            let key: Key = (top.production.0, top.wmes.0.clone());
            return self.entries.get(&key);
        }
        self.entries.values().max_by(|a, b| compare(strategy, a, b))
    }

    /// Drops an entry's rank-index and WME-index records.
    fn unlink(&mut self, key: &Key, inst: &Instantiation) {
        self.rank.remove(&rank_key(self.rank_strategy, inst));
        for (i, &w) in inst.wmes.iter().enumerate() {
            if !inst.wmes[..i].contains(&w) {
                unindex(&mut self.by_wme, w, key);
            }
        }
    }

    /// Rebuilds the rank index when the requested strategy changed.
    fn ensure_rank(&mut self, strategy: Strategy) {
        if strategy == self.rank_strategy {
            return;
        }
        self.rank_strategy = strategy;
        self.rank = self
            .entries
            .values()
            .map(|i| rank_key(strategy, i))
            .collect();
    }
}

fn unindex(by_wme: &mut HashMap<WmeId, Vec<Key>>, w: WmeId, key: &Key) {
    if let Some(keys) = by_wme.get_mut(&w) {
        if let Some(pos) = keys.iter().position(|k| k == key) {
            keys.swap_remove(pos);
        }
        if keys.is_empty() {
            by_wme.remove(&w);
        }
    }
}

/// Total order used for resolution; `Greater` means "dominates". The rank
/// index orders identically (asserted by the tests); this function remains
/// the executable specification and serves strategy-mismatched `peek`s.
fn compare(strategy: Strategy, a: &Instantiation, b: &Instantiation) -> Ordering {
    if strategy == Strategy::Mea {
        match a.mea_tag().cmp(&b.mea_tag()) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    // LEX recency: compare the cached sorted-descending tag slices. Slice
    // ordering is lexicographic with length as the final criterion, which
    // is exactly the LEX rule (an equal prefix with more tags dominates).
    match a.sorted_tags().cmp(b.sorted_tags()) {
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

/// Builds an instantiation given the matched WME ids + tags and production
/// metadata (convenience for the matchers).
pub fn make_instantiation(
    production: u32,
    prod: &Production,
    wmes: Vec<WmeId>,
    tags: Vec<TimeTag>,
) -> Instantiation {
    debug_assert_eq!(wmes.len(), prod.n_positive());
    Instantiation::new(
        production,
        wmes.into_boxed_slice(),
        tags.into_boxed_slice(),
        prod.specificity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn retract_wme_removes_matching_instantiations() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1, 2], 1));
        cs.insert(inst(1, &[3, 4], 1));
        cs.retract_wme(WmeId(2));
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);
    }

    #[test]
    fn retract_wme_handles_duplicate_wmes_in_one_instantiation() {
        // A WME matching two CEs appears twice in `wmes`; the WME index must
        // register it once and retracting it must drop the entry cleanly.
        let i = Instantiation::new(0, Box::new([WmeId(7), WmeId(7)]), Box::new([3, 3]), 2);
        let mut cs = ConflictSet::new();
        cs.insert(i);
        assert_eq!(cs.len(), 1);
        cs.retract_wme(WmeId(7));
        assert_eq!(cs.len(), 0);
        assert!(cs.select(Strategy::Lex).is_none());
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

    /// The rank index must order exactly like `compare` — drain via
    /// `select` and check each winner against a linear max over the rest.
    #[test]
    fn rank_index_agrees_with_linear_compare() {
        for strategy in [Strategy::Lex, Strategy::Mea] {
            // A mix of lengths, duplicate tags, ties and tagless entries.
            let pool = [
                inst(0, &[4, 9], 3),
                inst(1, &[9, 4], 3),
                inst(2, &[9], 1),
                inst(3, &[9, 4, 1], 3),
                inst(4, &[], 7),
                inst(5, &[4, 9], 3),
                inst(6, &[2, 100], 2),
                inst(7, &[100, 2], 2),
            ];
            let mut cs = ConflictSet::new();
            let mut model: Vec<Instantiation> = pool.to_vec();
            for i in pool {
                cs.insert(i);
            }
            while let Some(winner) = cs.select(strategy) {
                let (best_at, _) = model
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| compare(strategy, a, b))
                    .unwrap();
                let expect = model.swap_remove(best_at);
                assert_eq!(winner, expect, "strategy {strategy:?}");
            }
            assert!(model.is_empty());
        }
    }
}
