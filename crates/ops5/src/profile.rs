//! Match-level profiling: where the match work actually goes.
//!
//! [`crate::instrument::WorkCounters`] answers *how much* work a run did;
//! this module answers *where*: which productions cost the most match
//! effort, which alpha memories are hottest, how large the conflict set
//! grows, and how the match fraction — the quantity that caps match-level
//! parallelism via Amdahl's law (§3.1 of the paper) — decomposes per
//! production.
//!
//! The *collection hooks* in the Rete and the engine branch at run time on
//! whether [`crate::Engine::enable_profile`] was called. The profiler
//! exclusively reads the deterministic work counters — it never adds cost
//! of its own — so work-unit totals are bit-identical whether profiling is
//! on or off.

use crate::instrument::WorkCounters;

/// Structural and indexing statistics of one Rete network. Unlike the
/// profile hooks these are counted *unconditionally* — they are plain
/// counters outside the work-unit model, so they cost nothing to the
/// deterministic accounting and are available without a profile (via
/// `Rete::net_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Beta nodes actually built (after prefix sharing).
    pub beta_nodes: u32,
    /// Beta nodes the same productions would need without sharing (the sum
    /// of chain lengths): `beta_nodes / unshared_beta_nodes` is the
    /// structural sharing ratio.
    pub unshared_beta_nodes: u32,
    /// Beta activations at nodes serving two or more productions — work
    /// done once where the unshared network repeats it per production.
    pub shared_node_hits: u64,
    /// Hash probes into indexed alpha/beta memories (each replaces a
    /// linear scan of the memory).
    pub index_probes: u64,
    /// Candidate scans that had no usable equality index (non-equality or
    /// test-free joins) and fell back to the linear path.
    pub linear_scans: u64,
    /// Alpha constant-test evaluations skipped because an earlier memory
    /// of the same class already evaluated the identical shared test.
    pub shared_test_hits: u64,
    /// Instantiations the match found satisfied: one per terminal a token
    /// reached.
    pub instantiations_emitted: u64,
    /// Of those, the ones retracted before the cycle's drain — never built,
    /// never in the conflict set. `emitted - netted` is what the conflict
    /// set was given to rank.
    pub instantiations_netted: u64,
    /// Retractions of instantiations a drain had handed over: one per
    /// terminal of a delivered token that was deleted or blocked. Each
    /// names an instantiation that is either still ranked or already fired.
    pub retractions_delivered: u64,
    /// Right activations that could not pair: a WME entering the alpha
    /// memory of a join whose token population is empty, or leaving a
    /// negative node's alpha memory with no token blocked by it. They are
    /// charged as if made — chunk, profile activation, shared-node hit,
    /// scan of an empty population, no unit — and not made.
    pub null_right_activations: u64,
    /// Right-activation candidates an index probe retrieved whose entry's
    /// fingerprint of the node's other equality keys differed from the
    /// arriving WME's: each fails an equality test, so it is charged its
    /// join tests, as if evaluated, and its chain is never loaded.
    pub fingerprint_skips: u64,
}

impl NetStats {
    /// Merges stats from another engine over the same program: counters
    /// add, structural sizes (identical by construction) take the max.
    pub fn merge(&mut self, other: &NetStats) {
        self.beta_nodes = self.beta_nodes.max(other.beta_nodes);
        self.unshared_beta_nodes = self.unshared_beta_nodes.max(other.unshared_beta_nodes);
        self.shared_node_hits += other.shared_node_hits;
        self.index_probes += other.index_probes;
        self.linear_scans += other.linear_scans;
        self.shared_test_hits += other.shared_test_hits;
        self.instantiations_emitted += other.instantiations_emitted;
        self.instantiations_netted += other.instantiations_netted;
        self.retractions_delivered += other.retractions_delivered;
        self.null_right_activations += other.null_right_activations;
        self.fingerprint_skips += other.fingerprint_skips;
    }
}

/// Profiling counters for one production.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProductionProfile {
    /// Production name (filled from the program at harvest time).
    pub name: String,
    /// Match work attributed to this production's chain, in work units
    /// (join tests, token maintenance, conflict-set emissions).
    pub match_units: u64,
    /// Beta-node activations on this production's chain (the ParaOPS5
    /// schedulable-subtask count restricted to this chain).
    pub activations: u64,
    /// Tokens created on this production's chain.
    pub tokens: u64,
    /// Times this production fired.
    pub firings: u64,
    /// Interpreter RHS work from this production's firings.
    pub act_units: u64,
    /// External (task-related) work from this production's firings.
    pub external_units: u64,
}

/// Profiling counters for one alpha memory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlphaMemProfile {
    /// Human-readable label: WME class plus constant-test count.
    pub label: String,
    /// Number of constant tests guarding the memory.
    pub tests: u32,
    /// WME insertions into the memory (right activations it fanned out).
    pub activations: u64,
    /// Alpha work charged at this memory (constant tests evaluated against
    /// it plus memory insert/remove operations), in work units.
    pub match_units: u64,
    /// Largest WME population the memory reached.
    pub peak_wmes: u32,
}

/// A complete match-level profile of one engine run (or a merge of several).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatchProfile {
    /// Per-production counters, indexed by production.
    pub productions: Vec<ProductionProfile>,
    /// Per-alpha-memory counters, indexed by memory id.
    pub alpha_mems: Vec<AlphaMemProfile>,
    /// Total tokens created in the beta network.
    pub tokens_created: u64,
    /// Total tokens deleted from the beta network.
    pub tokens_deleted: u64,
    /// Conflict-set size observed at each recognize–act cycle.
    pub conflict_sizes: Vec<u32>,
    /// Recognize–act cycles profiled.
    pub cycles: u64,
    /// The run's merged work counters (match + interpreter), for computing
    /// the measured match fraction the profile decomposes.
    pub work: WorkCounters,
    /// Network sharing/indexing statistics (shared-node hits, index probes
    /// vs linear scans, memoised alpha tests).
    pub net: NetStats,
}

impl MatchProfile {
    /// Merges another profile into this one. Profiles are index-aligned:
    /// both must come from engines sharing the same compiled program (the
    /// alpha/beta network layout is deterministic given the program), which
    /// is how SPAM's many task-process engines are aggregated.
    pub fn merge(&mut self, other: &MatchProfile) {
        if self.productions.len() < other.productions.len() {
            self.productions
                .resize(other.productions.len(), ProductionProfile::default());
        }
        for (mine, theirs) in self.productions.iter_mut().zip(&other.productions) {
            if mine.name.is_empty() {
                mine.name = theirs.name.clone();
            }
            mine.match_units += theirs.match_units;
            mine.activations += theirs.activations;
            mine.tokens += theirs.tokens;
            mine.firings += theirs.firings;
            mine.act_units += theirs.act_units;
            mine.external_units += theirs.external_units;
        }
        if self.alpha_mems.len() < other.alpha_mems.len() {
            self.alpha_mems
                .resize(other.alpha_mems.len(), AlphaMemProfile::default());
        }
        for (mine, theirs) in self.alpha_mems.iter_mut().zip(&other.alpha_mems) {
            if mine.label.is_empty() {
                mine.label = theirs.label.clone();
                mine.tests = theirs.tests;
            }
            mine.activations += theirs.activations;
            mine.match_units += theirs.match_units;
            mine.peak_wmes = mine.peak_wmes.max(theirs.peak_wmes);
        }
        self.tokens_created += other.tokens_created;
        self.tokens_deleted += other.tokens_deleted;
        self.conflict_sizes.extend_from_slice(&other.conflict_sizes);
        self.cycles += other.cycles;
        self.work.add(&other.work);
        self.net.merge(&other.net);
    }

    /// The measured match fraction of the profiled work (the paper's key
    /// workload statistic; 0.3–0.5 for SPAM's LCC).
    pub fn match_fraction(&self) -> f64 {
        self.work.match_fraction()
    }

    /// Match units attributed to production chains (excludes shared alpha
    /// classification work).
    pub fn beta_units(&self) -> u64 {
        self.productions.iter().map(|p| p.match_units).sum()
    }

    /// Match units attributed to alpha memories.
    pub fn alpha_units(&self) -> u64 {
        self.alpha_mems.iter().map(|a| a.match_units).sum()
    }

    /// Mean conflict-set size over the profiled cycles (0 when none).
    pub fn mean_conflict_size(&self) -> f64 {
        if self.conflict_sizes.is_empty() {
            0.0
        } else {
            self.conflict_sizes.iter().map(|&c| c as f64).sum::<f64>()
                / self.conflict_sizes.len() as f64
        }
    }

    /// Largest conflict set observed (0 when none).
    pub fn max_conflict_size(&self) -> u32 {
        self.conflict_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Index of the named production in the profile, if present.
    pub fn find_production(&self, name: &str) -> Option<usize> {
        self.productions.iter().position(|p| p.name == name)
    }

    /// Fraction of the run's **total** match work attributed to production
    /// `idx`'s beta chain, in `[0, 1]`. Alpha classification work is shared
    /// across productions and deliberately not credited, so the share is a
    /// lower bound — the right property for *virtual scaling*: a causal
    /// what-if that speeds this production up can never claim savings from
    /// work the production does not own.
    pub fn production_match_share(&self, idx: usize) -> f64 {
        let total = self.work.match_units;
        if total == 0 {
            return 0.0;
        }
        let mine = self.productions.get(idx).map_or(0, |p| p.match_units);
        (mine as f64 / total as f64).min(1.0)
    }

    /// The `n` productions with the highest attributed match cost, as
    /// `(production index, profile)` pairs in descending cost order.
    /// Productions that never cost anything are omitted.
    pub fn hot_productions(&self, n: usize) -> Vec<(usize, &ProductionProfile)> {
        let mut v: Vec<(usize, &ProductionProfile)> = self
            .productions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.match_units > 0 || p.firings > 0)
            .collect();
        v.sort_by(|a, b| {
            b.1.match_units
                .cmp(&a.1.match_units)
                .then(b.1.firings.cmp(&a.1.firings))
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }

    /// The `n` hottest alpha memories by attributed alpha cost, as
    /// `(memory id, profile)` pairs in descending cost order. Memories that
    /// never saw work are omitted.
    pub fn hot_alpha_mems(&self, n: usize) -> Vec<(usize, &AlphaMemProfile)> {
        let mut v: Vec<(usize, &AlphaMemProfile)> = self
            .alpha_mems
            .iter()
            .enumerate()
            .filter(|(_, a)| a.match_units > 0)
            .collect();
        v.sort_by(|a, b| {
            b.1.match_units
                .cmp(&a.1.match_units)
                .then(b.1.activations.cmp(&a.1.activations))
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }
}

/// Mutable per-alpha-memory counters owned by the alpha network while
/// profiling is enabled (internal collection state behind [`MatchProfile`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AlphaMemCounters {
    pub(crate) activations: u64,
    pub(crate) match_units: u64,
    pub(crate) peak_wmes: u32,
}

/// Mutable per-chain counters owned by the Rete while profiling is enabled.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChainCounters {
    pub(crate) match_units: u64,
    pub(crate) activations: u64,
    pub(crate) tokens: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof(costs: &[(u64, u64)]) -> MatchProfile {
        MatchProfile {
            productions: costs
                .iter()
                .enumerate()
                .map(|(i, &(mu, f))| ProductionProfile {
                    name: format!("p{i}"),
                    match_units: mu,
                    firings: f,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn hot_productions_sorted_and_truncated() {
        let p = prof(&[(5, 1), (100, 2), (0, 0), (50, 9)]);
        let hot = p.hot_productions(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, 1);
        assert_eq!(hot[1].0, 3);
        // Zero-cost, zero-firing productions never appear.
        assert!(p.hot_productions(10).iter().all(|(i, _)| *i != 2));
    }

    #[test]
    fn merge_is_index_aligned_and_additive() {
        let mut a = prof(&[(10, 1), (20, 2)]);
        a.conflict_sizes = vec![3, 4];
        a.cycles = 2;
        let mut b = prof(&[(1, 0), (2, 1), (3, 0)]);
        b.tokens_created = 7;
        a.merge(&b);
        assert_eq!(a.productions.len(), 3);
        assert_eq!(a.productions[0].match_units, 11);
        assert_eq!(a.productions[1].firings, 3);
        assert_eq!(a.productions[2].match_units, 3);
        assert_eq!(a.tokens_created, 7);
        assert_eq!(a.conflict_sizes, vec![3, 4]);
        assert_eq!(a.cycles, 2);
    }

    #[test]
    fn production_shares_for_virtual_scaling() {
        let mut p = prof(&[(30, 1), (50, 2), (0, 0)]);
        // Total match work includes 20 units of shared alpha work that no
        // production owns: shares are lower bounds and never sum past 1.
        p.work.match_units = 100;
        assert_eq!(p.find_production("p1"), Some(1));
        assert_eq!(p.find_production("nope"), None);
        assert!((p.production_match_share(1) - 0.5).abs() < 1e-12);
        assert!((p.production_match_share(0) - 0.3).abs() < 1e-12);
        assert_eq!(p.production_match_share(2), 0.0);
        assert_eq!(p.production_match_share(99), 0.0);
        // Zero total work: share is zero, not NaN.
        let empty = MatchProfile::default();
        assert_eq!(empty.production_match_share(0), 0.0);
    }

    #[test]
    fn conflict_size_summaries() {
        let mut p = MatchProfile::default();
        assert_eq!(p.mean_conflict_size(), 0.0);
        assert_eq!(p.max_conflict_size(), 0);
        p.conflict_sizes = vec![1, 2, 6];
        assert!((p.mean_conflict_size() - 3.0).abs() < 1e-12);
        assert_eq!(p.max_conflict_size(), 6);
    }
}
