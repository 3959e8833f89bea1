//! The alpha network: constant tests and alpha memories.
//!
//! Alpha memories are shared: two condition elements with the same class and
//! the same constant-test set (across any productions) feed from one memory,
//! as in Forgy's original network-sharing optimisation. On top of that the
//! network shares the *tests themselves*: every distinct constant test is
//! registered once, and while classifying one WME each distinct test is
//! evaluated at most once (memoised per WME), however many memories of the
//! class guard with it. Memories can also carry hash indexes over selected
//! slots, so the beta network's equality joins probe candidates by value
//! instead of scanning the whole memory.

use super::compile::{eval_alpha, AlphaTest};
use crate::ast::SlotIdx;
use crate::buckets::{Buckets, FastMap, Pool};
use crate::instrument::cost;
use crate::profile::AlphaMemCounters;
use crate::symbol::Symbol;
use crate::wme::{Wme, WmeId};

/// Identifier of an alpha memory.
pub type AlphaMemId = u32;

/// A beta-node successor of an alpha memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Successor {
    /// Beta-node id in the Rete runtime.
    pub node: u32,
}

/// A hash index over one slot of a memory's WMEs, keyed by
/// [`Value::hash_key`] (which collides exactly where `ops_eq` demands, so
/// numeric coercion — `3` vs `3.0` — probes the same bucket; probers always
/// re-verify with the full join tests).
#[derive(Clone, Debug)]
struct SlotIndex {
    slot: SlotIdx,
    buckets: Buckets<u64, WmeId>,
}

/// One alpha memory: a constant-test pattern plus the set of WMEs passing it.
#[derive(Clone, Debug)]
pub struct AlphaMemory {
    /// Class filter.
    pub class: Symbol,
    /// Constant tests (all must pass).
    pub tests: Vec<AlphaTest>,
    /// Ids of `tests` in the network-wide shared-test registry (parallel to
    /// `tests`).
    test_ids: Vec<u32>,
    /// WMEs currently in the memory.
    pub wmes: Vec<WmeId>,
    /// Beta nodes fed by this memory.
    pub successors: Vec<Successor>,
    /// Slot indexes requested by equality-join successors.
    indexes: Vec<SlotIndex>,
}

/// The alpha network.
#[derive(Clone, Debug)]
pub struct AlphaNetwork {
    mems: Vec<AlphaMemory>,
    by_class: FastMap<Symbol, Vec<AlphaMemId>>,
    /// Spare bucket lists of the slot indexes.
    pool: Pool<WmeId>,
    /// Every distinct constant test in the program, shared across memories.
    test_registry: Vec<AlphaTest>,
    /// When true, classification memoises each registry test per WME and
    /// charges its cost only on first evaluation. When false (the unshared
    /// baseline), every memory evaluates and pays for its own tests.
    share_tests: bool,
    /// Per-registry-test memo `(generation, result)`; valid when the
    /// generation matches the current classification pass.
    memo: Vec<(u64, bool)>,
    generation: u64,
    /// Constant-test evaluations skipped via the memo (always counted; not
    /// part of the work-unit model).
    pub shared_test_hits: u64,
    /// Per-memory profiling counters; `Some` only while profiling. The
    /// counters mirror the costs charged to `work_units` — they never add
    /// work of their own.
    profile: Option<Vec<AlphaMemCounters>>,
}

impl Default for AlphaNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl AlphaNetwork {
    /// Creates an empty network with shared-test evaluation enabled.
    pub fn new() -> Self {
        Self::with_sharing(true)
    }

    /// Creates an empty network; `share_tests` controls constant-test
    /// memoisation (memory-level sharing by `(class, tests)` is always on —
    /// it is the seed behaviour).
    pub fn with_sharing(share_tests: bool) -> Self {
        AlphaNetwork {
            mems: Vec::new(),
            by_class: FastMap::default(),
            pool: Vec::new(),
            test_registry: Vec::new(),
            share_tests,
            memo: Vec::new(),
            generation: 0,
            shared_test_hits: 0,
            profile: None,
        }
    }

    /// Number of alpha memories.
    pub fn len(&self) -> usize {
        self.mems.len()
    }

    /// True when the network has no memories.
    pub fn is_empty(&self) -> bool {
        self.mems.is_empty()
    }

    /// Number of distinct constant tests registered (the shared-test pool).
    pub fn distinct_tests(&self) -> usize {
        self.test_registry.len()
    }

    /// Borrow a memory.
    pub fn mem(&self, id: AlphaMemId) -> &AlphaMemory {
        &self.mems[id as usize]
    }

    /// Finds or creates the memory for `(class, tests)` and registers
    /// `successor`. Returns the memory id.
    pub fn get_or_create(
        &mut self,
        class: Symbol,
        tests: &[AlphaTest],
        successor: Successor,
    ) -> AlphaMemId {
        let ids = self.by_class.entry(class).or_default();
        for &id in ids.iter() {
            if self.mems[id as usize].tests == tests {
                self.mems[id as usize].successors.push(successor);
                return id;
            }
        }
        let test_ids = tests
            .iter()
            .map(|t| match self.test_registry.iter().position(|r| r == t) {
                Some(i) => i as u32,
                None => {
                    self.test_registry.push(t.clone());
                    self.memo.push((0, false));
                    (self.test_registry.len() - 1) as u32
                }
            })
            .collect();
        let id = self.mems.len() as AlphaMemId;
        self.mems.push(AlphaMemory {
            class,
            tests: tests.to_vec(),
            test_ids,
            wmes: Vec::new(),
            successors: vec![successor],
            indexes: Vec::new(),
        });
        self.by_class.entry(class).or_default().push(id);
        id
    }

    /// Ensures memory `id` maintains a hash index over `slot`. Must be
    /// called at network-build time, before any WME enters the memory.
    pub fn ensure_index(&mut self, id: AlphaMemId, slot: SlotIdx) {
        let mem = &mut self.mems[id as usize];
        debug_assert!(
            mem.wmes.is_empty(),
            "alpha indexes are declared before WMEs arrive"
        );
        if !mem.indexes.iter().any(|ix| ix.slot == slot) {
            mem.indexes.push(SlotIndex {
                slot,
                buckets: Buckets::default(),
            });
        }
    }

    /// The WMEs of memory `id` whose `slot` value hashes to `key` (a
    /// superset of the `ops_eq`-equal candidates; callers re-verify). The
    /// index must have been declared with [`ensure_index`](Self::ensure_index).
    pub fn probe(&self, id: AlphaMemId, slot: SlotIdx, key: u64) -> &[WmeId] {
        self.mems[id as usize]
            .indexes
            .iter()
            .find(|ix| ix.slot == slot)
            .map_or(&[], |ix| ix.buckets.get(key))
    }

    /// Empties every memory and index bucket and zeroes the run counters,
    /// keeping the memories, tests, successors, declared indexes and every
    /// list's capacity (buckets go back to the pool). The
    /// test memo needs no clearing: its entries are stamped with the
    /// classification pass that wrote them, and the pass counter only moves
    /// forward, so a stale entry is never read.
    pub fn reset(&mut self) {
        for mem in &mut self.mems {
            mem.wmes.clear();
            for ix in &mut mem.indexes {
                ix.buckets.clear_into(&mut self.pool);
            }
        }
        self.shared_test_hits = 0;
        self.profile = None;
    }

    /// Classifies a new WME into its memories, appending the activated
    /// memory ids to `hit` and accumulating the match cost in `work_units`.
    pub fn classify_add(
        &mut self,
        id: WmeId,
        wme: &Wme,
        work_units: &mut u64,
        hit: &mut Vec<AlphaMemId>,
    ) {
        self.generation += 1;
        let Some(ids) = self.by_class.get(&wme.class) else {
            return;
        };
        for &m in ids {
            let mem = &mut self.mems[m as usize];
            let mut pass = true;
            let mut mem_units = 0u64;
            for (t, &tid) in mem.tests.iter().zip(&mem.test_ids) {
                let ok = if self.share_tests {
                    let slot = &mut self.memo[tid as usize];
                    if slot.0 == self.generation {
                        // An earlier memory of this class already evaluated
                        // the identical test against this WME.
                        self.shared_test_hits += 1;
                        slot.1
                    } else {
                        mem_units += cost::ALPHA_TEST;
                        let r = eval_alpha(t, &wme.fields);
                        *slot = (self.generation, r);
                        r
                    }
                } else {
                    mem_units += cost::ALPHA_TEST;
                    eval_alpha(t, &wme.fields)
                };
                if !ok {
                    pass = false;
                    break;
                }
            }
            if pass {
                mem_units += cost::ALPHA_MEM_OP;
                mem.wmes.push(id);
                for ix in &mut mem.indexes {
                    let key = wme.get(ix.slot as usize).hash_key();
                    ix.buckets.push(key, id, &mut self.pool);
                }
                hit.push(m);
            }
            *work_units += mem_units;
            if let Some(p) = &mut self.profile {
                let c = &mut p[m as usize];
                c.match_units += mem_units;
                if pass {
                    c.activations += 1;
                    c.peak_wmes = c.peak_wmes.max(self.mems[m as usize].wmes.len() as u32);
                }
            }
        }
    }

    /// Removes a WME from every memory containing it, appending the ids of
    /// the memories it was removed from to `hit`.
    pub fn classify_remove(
        &mut self,
        id: WmeId,
        wme: &Wme,
        work_units: &mut u64,
        hit: &mut Vec<AlphaMemId>,
    ) {
        if let Some(ids) = self.by_class.get(&wme.class) {
            for &m in ids {
                let mem = &mut self.mems[m as usize];
                if let Some(pos) = mem.wmes.iter().position(|&w| w == id) {
                    *work_units += cost::ALPHA_MEM_OP;
                    // Order-preserving on purpose: snapshot restore rebuilds
                    // memories by re-inserting live WMEs in id order, and
                    // scan costs must not change across a crash recovery.
                    mem.wmes.remove(pos);
                    for ix in &mut mem.indexes {
                        let key = wme.get(ix.slot as usize).hash_key();
                        ix.buckets.remove_item(key, id, &mut self.pool);
                    }
                    hit.push(m);
                    if let Some(p) = &mut self.profile {
                        p[m as usize].match_units += cost::ALPHA_MEM_OP;
                    }
                }
            }
        }
    }

    /// Starts collecting per-memory profiling counters (resetting any
    /// previous collection). The only caller is compiled out with the
    /// `profiler` feature off.
    #[cfg_attr(not(feature = "profiler"), allow(dead_code))]
    pub(crate) fn enable_profile(&mut self) {
        self.profile = Some(vec![AlphaMemCounters::default(); self.mems.len()]);
    }

    /// Takes the collected per-memory counters, if profiling was enabled.
    /// Collection continues with fresh counters.
    pub(crate) fn take_profile(&mut self) -> Option<Vec<AlphaMemCounters>> {
        let p = self.profile.take()?;
        self.profile = Some(vec![AlphaMemCounters::default(); self.mems.len()]);
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Predicate;
    use crate::rete::compile::AlphaArg;
    use crate::symbol::sym;
    use crate::value::Value;

    fn added(net: &mut AlphaNetwork, id: WmeId, w: &Wme, units: &mut u64) -> Vec<AlphaMemId> {
        let mut hit = Vec::new();
        net.classify_add(id, w, units, &mut hit);
        hit
    }

    fn test_gt(slot: u16, v: i64) -> AlphaTest {
        AlphaTest {
            slot,
            predicate: Predicate::Gt,
            arg: AlphaArg::Const(Value::Int(v)),
        }
    }

    #[test]
    fn memory_sharing_by_pattern() {
        let mut net = AlphaNetwork::new();
        let c = sym("region");
        let s1 = Successor { node: 0 };
        let s2 = Successor { node: 1 };
        let a = net.get_or_create(c, &[test_gt(0, 5)], s1);
        let b = net.get_or_create(c, &[test_gt(0, 5)], s2);
        assert_eq!(a, b, "identical patterns share a memory");
        assert_eq!(net.mem(a).successors.len(), 2);
        let d = net.get_or_create(c, &[test_gt(0, 6)], s1);
        assert_ne!(a, d);
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn classify_add_and_remove() {
        let mut net = AlphaNetwork::new();
        let c = sym("region");
        let succ = Successor { node: 0 };
        let big = net.get_or_create(c, &[test_gt(0, 100)], succ);
        let any = net.get_or_create(c, &[], succ);

        let mut w = Wme::new(c, 1, 1);
        w.set(0, Value::Int(500));
        let mut units = 0;
        let hit = added(&mut net, WmeId(0), &w, &mut units);
        assert_eq!(hit, vec![big, any]);
        assert!(units > 0);

        let mut small = Wme::new(c, 1, 2);
        small.set(0, Value::Int(5));
        let hit = added(&mut net, WmeId(1), &small, &mut units);
        assert_eq!(hit, vec![any]);

        let mut removed = Vec::new();
        net.classify_remove(WmeId(0), &w, &mut units, &mut removed);
        assert_eq!(removed, vec![big, any]);
        assert_eq!(net.mem(big).wmes.len(), 0);
        assert_eq!(net.mem(any).wmes, vec![WmeId(1)]);
    }

    #[test]
    fn wrong_class_never_matches() {
        let mut net = AlphaNetwork::new();
        let succ = Successor { node: 0 };
        net.get_or_create(sym("region"), &[], succ);
        let w = Wme::new(sym("fragment"), 1, 1);
        let mut units = 0;
        assert!(added(&mut net, WmeId(0), &w, &mut units).is_empty());
    }

    #[test]
    fn shared_tests_are_evaluated_once_per_wme() {
        // Two memories guard with the same `> 5` test (plus one extra each);
        // with sharing on, classifying one WME evaluates `> 5` once.
        let c = sym("region");
        let succ = Successor { node: 0 };
        let mut shared = AlphaNetwork::new();
        let mut unshared = AlphaNetwork::with_sharing(false);
        for net in [&mut shared, &mut unshared] {
            net.get_or_create(c, &[test_gt(0, 5), test_gt(1, 1)], succ);
            net.get_or_create(c, &[test_gt(0, 5), test_gt(1, 2)], succ);
        }
        assert_eq!(shared.distinct_tests(), 3);

        let mut w = Wme::new(c, 2, 1);
        w.set(0, Value::Int(9));
        w.set(1, Value::Int(9));
        let (mut su, mut uu) = (0u64, 0u64);
        assert_eq!(
            added(&mut shared, WmeId(0), &w, &mut su),
            added(&mut unshared, WmeId(0), &w, &mut uu),
            "sharing never changes classification"
        );
        assert_eq!(shared.shared_test_hits, 1, "`>5` memoised for memory 2");
        assert_eq!(su, uu - cost::ALPHA_TEST, "one test evaluation saved");

        // A failing WME still short-circuits identically.
        let mut w2 = Wme::new(c, 2, 2);
        w2.set(0, Value::Int(1));
        let (mut su2, mut uu2) = (0u64, 0u64);
        assert!(added(&mut shared, WmeId(1), &w2, &mut su2).is_empty());
        assert!(added(&mut unshared, WmeId(1), &w2, &mut uu2).is_empty());
        assert_eq!(su2, uu2 - cost::ALPHA_TEST);
    }

    #[test]
    fn slot_index_tracks_membership() {
        let mut net = AlphaNetwork::new();
        let c = sym("fragment");
        let m = net.get_or_create(c, &[], Successor { node: 0 });
        net.ensure_index(m, 0);
        net.ensure_index(m, 0); // idempotent

        let mut units = 0;
        for (i, v) in [(0u32, 7i64), (1, 7), (2, 8)] {
            let mut w = Wme::new(c, 1, i as u64 + 1);
            w.set(0, Value::Int(v));
            added(&mut net, WmeId(i), &w, &mut units);
        }
        let key7 = Value::Int(7).hash_key();
        assert_eq!(net.probe(m, 0, key7), &[WmeId(0), WmeId(1)]);
        // Numeric coercion probes the same bucket.
        assert_eq!(net.probe(m, 0, Value::Float(7.0).hash_key()).len(), 2);
        assert_eq!(net.probe(m, 0, Value::Int(9).hash_key()), &[] as &[WmeId]);

        let mut w = Wme::new(c, 1, 1);
        w.set(0, Value::Int(7));
        net.classify_remove(WmeId(0), &w, &mut units, &mut Vec::new());
        assert_eq!(net.probe(m, 0, key7), &[WmeId(1)]);

        // Reset empties the memory and its buckets but keeps the index.
        net.reset();
        assert!(net.mem(m).wmes.is_empty());
        assert_eq!(net.probe(m, 0, key7), &[] as &[WmeId]);
        added(&mut net, WmeId(0), &w, &mut units);
        assert_eq!(net.probe(m, 0, key7), &[WmeId(0)]);
    }
}
