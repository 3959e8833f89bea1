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
//!
//! An index is declared when the network is built but exists only where a
//! join probes it: the first probe of a memory builds it from the memory's
//! WMEs in arrival order ([`AlphaMemories::probe`]), later additions and
//! removals keep it up, and it is unbuilt — its table kept for the next
//! build — whenever the memory empties. Probes are gated on the memory's
//! population, not on whether an index exists, and keeping an index up was
//! never charged, so when an index is built reaches no count: it decides
//! only what the upkeep costs in wall time. Most declared indexes are never
//! probed in a task, since most joins a WME reaches have nothing to pair
//! with.
//!
//! Classification is *discriminated*: a class whose memories mostly open
//! with `^slot = constant` on one slot (SPAM's `lcc-pair` has one memory
//! per constraint id) keeps those memories in a table keyed by the
//! constant, and a WME visits only the bucket of its own slot value plus
//! the memories that could not be keyed ([`AlphaNetwork::build_dispatch`]).
//! The work-unit model is unchanged by it: the modelled machine still walks
//! its constant-test chain, and the failing first tests of the memories the
//! table skips are charged in closed form — same units, same
//! `shared_test_hits`, same per-memory profile as visiting every one.
//!
//! The network is in two halves. [`AlphaNetwork`] is what the build fixes —
//! per memory its class, tests, successors and declared index slots, the
//! dispatch tables, the test registry — and is shared, immutable, by every
//! engine of a program (inside a [`super::Network`]). [`AlphaMemories`] is
//! what a run changes — which WMEs each memory holds, the index buckets,
//! the test memo, the run counters — and every engine has its own, made by
//! [`AlphaMemories::new`] as empty lists, one per memory.

use super::compile::{eval_alpha, AlphaArg, AlphaTest};
use crate::ast::{Predicate, SlotIdx};
use crate::buckets::{Buckets, FastMap, Pool};
use crate::instrument::cost;
use crate::profile::AlphaMemCounters;
use crate::symbol::Symbol;
use crate::value::Value;
use crate::wme::{WmStore, Wme, WmeId};
use std::cell::{Cell, OnceCell, RefCell};
use std::cmp::Reverse;

thread_local! {
    /// See [`AlphaMemories::index_insertions_on_this_thread`].
    static INDEXED: Cell<u64> = const { Cell::new(0) };
}

/// Identifier of an alpha memory.
pub type AlphaMemId = u32;

/// A beta-node successor of an alpha memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Successor {
    /// Beta-node id in the Rete runtime.
    pub node: u32,
}

/// One alpha memory as the build fixes it: a constant-test pattern, whom it
/// feeds and which of its slots are hash-indexed. The WMEs passing the
/// pattern are an engine's ([`AlphaMemories`]).
#[derive(Clone, Debug)]
pub struct AlphaMemory {
    /// Class filter.
    pub class: Symbol,
    /// Constant tests (all must pass).
    pub tests: Vec<AlphaTest>,
    /// Ids of `tests` in the network-wide shared-test registry (parallel to
    /// `tests`).
    test_ids: Vec<u32>,
    /// Beta nodes fed by this memory.
    pub successors: Vec<Successor>,
    /// The slots equality-join successors asked a hash index over, keyed by
    /// [`Value::hash_key`] (which collides exactly where `ops_eq` demands,
    /// so numeric coercion — `3` vs `3.0` — probes the same bucket; probers
    /// always re-verify with the full join tests).
    index_slots: Vec<SlotIdx>,
}

impl AlphaMemory {
    /// The slots its hash indexes are declared over.
    pub fn index_slots(&self) -> &[SlotIdx] {
        &self.index_slots
    }
}

/// One entry of a class's dispatch table: a memory reached by the constant
/// its first test compares against.
#[derive(Clone, Copy, Debug)]
struct Keyed {
    /// [`Value::hash_key`] of that constant.
    key: u64,
    mem: AlphaMemId,
    /// True for the first memory, in walk order, guarding with this first
    /// test: with test sharing on it is the one a full walk charges for the
    /// evaluation (the later ones read the memo).
    pays: bool,
}

/// The fewest memories of one class opening with an equality test on one
/// slot for which a dispatch table is built: a lone memory has nothing to
/// be told apart from, and visiting it costs the one test a probe saves.
const DISPATCH_MIN_MEMORIES: usize = 2;

/// The memories of one class and how a WME of the class reaches them.
/// Until [`AlphaNetwork::build_dispatch`] runs every memory is in `always`.
#[derive(Clone, Debug, Default)]
struct ClassDispatch {
    /// The memories every WME of the class visits, in creation order —
    /// ascending ids, the order a walk over the whole class takes.
    always: Vec<AlphaMemId>,
    /// The slot whose value selects a bucket of `table`.
    slot: SlotIdx,
    /// The keyed memories sorted by `(key, mem)`: the memories of one key —
    /// a *bucket* — are a run found by binary search, ascending like
    /// `always`.
    table: Vec<Keyed>,
    /// Distinct first tests among the keyed memories.
    distinct_keyed_tests: u32,
}

/// The always-list and one bucket, both ascending, as one ascending walk:
/// the memories a WME can be in, in the order a walk over the whole class
/// would come to them.
struct Merged<'a>(&'a [AlphaMemId], &'a [Keyed]);

impl Iterator for Merged<'_> {
    type Item = AlphaMemId;

    #[inline]
    fn next(&mut self) -> Option<AlphaMemId> {
        match (self.0.split_first(), self.1.split_first()) {
            (Some((&a, rest)), Some((b, _))) if a < b.mem => {
                self.0 = rest;
                Some(a)
            }
            (_, Some((b, rest))) => {
                self.1 = rest;
                Some(b.mem)
            }
            (Some((&a, rest)), None) => {
                self.0 = rest;
                Some(a)
            }
            (None, None) => None,
        }
    }
}

impl ClassDispatch {
    /// The key a WME with `fields` selects its bucket by, and the bucket
    /// (empty when no keyed memory has a constant of that key).
    #[inline]
    fn bucket(&self, fields: &[Value]) -> (u64, &[Keyed]) {
        let v = fields.get(self.slot as usize).copied();
        let key = v.unwrap_or(Value::Nil).hash_key();
        let from = self.table.partition_point(|k| k.key < key);
        let len = self.table[from..]
            .iter()
            .take_while(|k| k.key == key)
            .count();
        (key, &self.table[from..from + len])
    }
}

/// The alpha network: the half the build fixes.
#[derive(Clone, Debug)]
pub struct AlphaNetwork {
    mems: Vec<AlphaMemory>,
    by_class: FastMap<Symbol, ClassDispatch>,
    /// Every distinct constant test in the program, shared across memories.
    test_registry: Vec<AlphaTest>,
    /// When true, classification memoises each registry test per WME and
    /// charges its cost only on first evaluation. When false (the unshared
    /// baseline), every memory evaluates and pays for its own tests.
    share_tests: bool,
}

/// What a run changes at one alpha memory.
#[derive(Clone, Debug)]
struct MemoryState {
    /// WMEs currently in the memory.
    wmes: Vec<WmeId>,
    /// Where the memory's hash indexes start in [`AlphaMemories::indexes`]
    /// (one per entry of [`AlphaMemory::index_slots`], in that order).
    first_index: u32,
    /// True once a WME has entered since the last reset: the memory is then
    /// on [`AlphaMemories::touched`].
    touched: bool,
}

/// One declared hash index of one memory: unbuilt until a join probes it.
#[derive(Clone, Debug, Default)]
struct SlotIndex {
    /// The memory's WMEs under [`Value::hash_key`] of the slot, in arrival
    /// order — set by the first probe since the memory last emptied.
    built: OnceCell<Buckets<u64, WmeId>>,
    /// The table while the index is unbuilt, empty, kept for the next
    /// build (a shared borrow takes it).
    spare: RefCell<Buckets<u64, WmeId>>,
}

impl SlotIndex {
    /// Back to unbuilt: the buckets go to `pool`, the table to `spare`.
    fn unbuild(&mut self, pool: &mut Pool<WmeId>) {
        if let Some(mut table) = self.built.take() {
            table.clear_into(pool);
            *self.spare.get_mut() = table;
        }
    }
}

/// The alpha network's other half: what one engine's run changes. Every
/// operation takes the [`AlphaNetwork`] it was made for.
#[derive(Clone, Debug)]
pub struct AlphaMemories {
    /// Parallel to the network's memories.
    mems: Vec<MemoryState>,
    /// The hash indexes of all memories, back to back (see
    /// [`MemoryState::first_index`]): one list however many memories
    /// declared one.
    indexes: Vec<SlotIndex>,
    /// The memories a WME has entered since the last reset or mark — what
    /// [`reset`](Self::reset) has to empty and [`rollback`](Self::rollback)
    /// to cut back.
    touched: Vec<AlphaMemId>,
    /// The memories a WME had entered when [`mark`](Self::mark) was called:
    /// a rollback leaves them alone, a reset empties them too.
    base_touched: Vec<AlphaMemId>,
    /// `shared_test_hits` at the mark.
    marked_hits: u64,
    /// Spare bucket lists of the slot indexes (an index build under a
    /// shared borrow takes them too).
    pool: RefCell<Pool<WmeId>>,
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
            test_registry: Vec::new(),
            share_tests,
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

    /// How many memories `class` has, and the most one WME of the class
    /// visits (the always-list plus the fullest bucket of the dispatch
    /// table); `None` for a class no condition element names.
    pub fn class_fanout(&self, class: Symbol) -> Option<(usize, usize)> {
        let d = self.by_class.get(&class)?;
        let fullest = d
            .table
            .chunk_by(|a, b| a.key == b.key)
            .map(<[_]>::len)
            .max();
        let visited = d.always.len() + fullest.unwrap_or(0);
        Some((d.always.len() + d.table.len(), visited))
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
        let dispatch = self.by_class.entry(class).or_default();
        debug_assert!(dispatch.table.is_empty(), "memories precede build_dispatch");
        for &id in &dispatch.always {
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
                    (self.test_registry.len() - 1) as u32
                }
            })
            .collect();
        let id = self.mems.len() as AlphaMemId;
        self.mems.push(AlphaMemory {
            class,
            tests: tests.to_vec(),
            test_ids,
            successors: vec![successor],
            index_slots: Vec::new(),
        });
        self.by_class.entry(class).or_default().always.push(id);
        id
    }

    /// Builds the per-class dispatch tables; call once, when every memory
    /// exists. Per class it picks the slot on which the most memories open
    /// with an `=`-against-constant test and keys those memories by
    /// [`Value::hash_key`] of their constant; the rest stay in the class's
    /// always-list. A WME whose slot value has a different key cannot pass
    /// such a memory's first test (`ops_eq` implies equal keys), so
    /// classification skips it and charges the failed test in closed form.
    ///
    /// A memory whose first test is also a *later* test of some memory of
    /// the class is not keyed: in a full walk that test's memo entry (who
    /// evaluates it first, who reads it) depends on how far the other
    /// memory gets, which no closed form knows. Everything else about a
    /// skipped memory is fixed — its first test fails, is charged once per
    /// distinct test (or once per memory without test sharing) and touches
    /// no memo entry anyone else reads.
    pub fn build_dispatch(&mut self) {
        // Scratch lists, one set for all classes.
        let mut later_tests: Vec<u32> = Vec::new();
        // `(slot, constant's key, memory, first test id)`.
        let mut keyable: Vec<(SlotIdx, u64, AlphaMemId, u32)> = Vec::new();
        let mut per_slot: Vec<(SlotIdx, usize)> = Vec::new();
        // Classes are independent of one another, so the order the map
        // yields them in reaches nothing.
        for dispatch in self.by_class.values_mut() {
            if dispatch.always.len() < DISPATCH_MIN_MEMORIES {
                continue;
            }
            let mems = &self.mems;
            later_tests.clear();
            for &m in &dispatch.always {
                for tid in mems[m as usize].test_ids.iter().skip(1) {
                    if !later_tests.contains(tid) {
                        later_tests.push(*tid);
                    }
                }
            }
            // The memories that open with `^slot = constant`, a test no
            // other memory of the class runs later.
            keyable.clear();
            for &m in &dispatch.always {
                let mem = &mems[m as usize];
                let (Some(t), Some(&tid)) = (mem.tests.first(), mem.test_ids.first()) else {
                    continue;
                };
                if let (Predicate::Eq, AlphaArg::Const(c)) = (t.predicate, &t.arg) {
                    if !later_tests.contains(&tid) {
                        keyable.push((t.slot, c.hash_key(), m, tid));
                    }
                }
            }
            // The most popular slot, the lowest among equals.
            per_slot.clear();
            for k in &keyable {
                match per_slot.iter_mut().find(|(slot, _)| *slot == k.0) {
                    Some((_, n)) => *n += 1,
                    None => per_slot.push((k.0, 1)),
                }
            }
            let most = per_slot.iter().max_by_key(|&&(slot, n)| (n, Reverse(slot)));
            let Some(&(slot, n)) = most else {
                continue;
            };
            if n < DISPATCH_MIN_MEMORIES {
                continue;
            }
            keyable.retain(|k| k.0 == slot);
            dispatch.slot = slot;
            // Both lists ascend by memory: one pass takes the keyed out.
            let mut taken = keyable.iter().map(|k| k.2).peekable();
            dispatch.always.retain(|&m| taken.next_if_eq(&m).is_none());
            keyable.sort_unstable_by_key(|k| (k.1, k.2));
            dispatch.table.reserve_exact(keyable.len());
            for (i, &(_, key, mem, tid)) in keyable.iter().enumerate() {
                // One test has one constant, so one key: an earlier memory
                // with the same first test is in this same bucket.
                let bucket = keyable[..i].iter().rev().take_while(|k| k.1 == key);
                let pays = !bucket.into_iter().any(|k| k.3 == tid);
                dispatch.distinct_keyed_tests += u32::from(pays);
                dispatch.table.push(Keyed { key, mem, pays });
            }
        }
    }

    /// Ensures memory `id` is hash-indexed over `slot`. The memories of an
    /// engine are made from the finished network, so every index is
    /// declared before a WME arrives.
    pub fn ensure_index(&mut self, id: AlphaMemId, slot: SlotIdx) {
        let mem = &mut self.mems[id as usize];
        if !mem.index_slots.contains(&slot) {
            mem.index_slots.push(slot);
        }
    }
}

impl AlphaMemories {
    /// The memories of `net`, all empty: one list per memory and per
    /// declared index, none of which has allocated yet.
    pub fn new(net: &AlphaNetwork) -> AlphaMemories {
        let mut n_indexes = 0;
        let mems = (net.mems.iter())
            .map(|mem| {
                let first_index = n_indexes;
                n_indexes += mem.index_slots.len() as u32;
                MemoryState {
                    wmes: Vec::new(),
                    first_index,
                    touched: false,
                }
            })
            .collect();
        AlphaMemories {
            mems,
            indexes: (0..n_indexes).map(|_| SlotIndex::default()).collect(),
            touched: Vec::new(),
            base_touched: Vec::new(),
            marked_hits: 0,
            pool: RefCell::default(),
            memo: vec![(0, false); net.test_registry.len()],
            generation: 0,
            shared_test_hits: 0,
            profile: None,
        }
    }

    /// The WMEs in memory `id`, in arrival order.
    #[inline]
    pub fn wmes(&self, id: AlphaMemId) -> &[WmeId] {
        &self.mems[id as usize].wmes
    }

    /// The WMEs of memory `id` whose `slot` value hashes to `key`, in
    /// arrival order (a superset of the `ops_eq`-equal candidates; callers
    /// re-verify). The index must have been declared with
    /// [`AlphaNetwork::ensure_index`]. The first probe since the memory
    /// last emptied builds it from the memory's WMEs, read in `wm`.
    pub fn probe(
        &self,
        net: &AlphaNetwork,
        wm: &WmStore,
        id: AlphaMemId,
        slot: SlotIdx,
        key: u64,
    ) -> &[WmeId] {
        let Some(index) = self.slot_index(net, id, slot) else {
            return &[];
        };
        let table = index.built.get_or_init(|| {
            let wmes = &self.mems[id as usize].wmes;
            let (mut table, mut pool) = (index.spare.take(), self.pool.borrow_mut());
            for &w in wmes {
                let wme = wm.get(w).expect("a memory holds live WMEs");
                table.push(wme.get(slot as usize).hash_key(), w, &mut pool);
            }
            INDEXED.with(|n| n.set(n.get() + wmes.len() as u64));
            table
        });
        table.get(key)
    }

    /// What [`probe`](Self::probe) answers while memory `id`'s index over
    /// `slot` is built; `None` while it is not. Builds nothing.
    pub fn built_probe(
        &self,
        net: &AlphaNetwork,
        id: AlphaMemId,
        slot: SlotIdx,
        key: u64,
    ) -> Option<&[WmeId]> {
        Some(self.slot_index(net, id, slot)?.built.get()?.get(key))
    }

    /// Memory `id`'s declared index over `slot`.
    fn slot_index(&self, net: &AlphaNetwork, id: AlphaMemId, slot: SlotIdx) -> Option<&SlotIndex> {
        let i = (net.mems[id as usize].index_slots.iter()).position(|&s| s == slot)?;
        self.indexes
            .get(self.mems[id as usize].first_index as usize + i)
    }

    /// How many WMEs the calling thread has put into alpha-memory hash
    /// indexes so far: an index's upkeep, which the work-unit model does
    /// not charge. Tests take the difference over a stretch of work (per
    /// thread, so tests running beside them do not count).
    pub fn index_insertions_on_this_thread() -> u64 {
        INDEXED.with(Cell::get)
    }

    /// Memory `mem`'s declared indexes.
    #[inline]
    fn indexes_of<'a>(
        indexes: &'a mut [SlotIndex],
        mem: &MemoryState,
        fixed: &AlphaMemory,
    ) -> &'a mut [SlotIndex] {
        let first = mem.first_index as usize;
        &mut indexes[first..first + fixed.index_slots.len()]
    }

    /// Memory `mem`'s built indexes, for putting something in or taking it
    /// out.
    #[inline]
    fn built_indexes<'a>(
        indexes: &'a mut [SlotIndex],
        mem: &MemoryState,
        fixed: &'a AlphaMemory,
    ) -> impl Iterator<Item = (&'a mut Buckets<u64, WmeId>, SlotIdx)> {
        (Self::indexes_of(indexes, mem, fixed).iter_mut())
            .zip(fixed.index_slots.iter().copied())
            .filter_map(|(ix, slot)| Some((ix.built.get_mut()?, slot)))
    }

    /// Empties every memory, unbuilds its indexes and zeroes the run
    /// counters, keeping every list's capacity (buckets go back to the pool,
    /// tables stay for the next build). The test memo needs no clearing: its
    /// entries are stamped with the classification pass that wrote them,
    /// and the pass counter only moves forward, so a stale entry is never
    /// read.
    ///
    /// Costs what the run left behind: only the memories a WME entered are
    /// visited.
    pub fn reset(&mut self, net: &AlphaNetwork) {
        for m in self.touched.drain(..).chain(self.base_touched.drain(..)) {
            let mem = &mut self.mems[m as usize];
            mem.touched = false;
            mem.wmes.clear();
            for ix in Self::indexes_of(&mut self.indexes, mem, &net.mems[m as usize]) {
                ix.unbuild(self.pool.get_mut());
            }
        }
        self.shared_test_hits = 0;
        self.profile = None;
    }

    /// Drops the spare bucket lists (see [`crate::rete::Rete::release_spares`]).
    pub(crate) fn release_spares(&mut self) {
        *self.pool.get_mut() = Pool::new();
    }

    /// Makes what the memories hold now the *base* that
    /// [`rollback`](Self::rollback) returns to. The memories touched so far
    /// move to a list of their own, so a rollback visits only what a WME
    /// entered after the mark.
    pub(crate) fn mark(&mut self) {
        for &m in &self.touched {
            self.mems[m as usize].touched = false;
        }
        self.base_touched.append(&mut self.touched);
        self.marked_hits = self.shared_test_hits;
    }

    /// Returns every memory to what it held at the [`mark`](Self::mark),
    /// given that no WME below `base` — the first id handed out after the
    /// mark — has left since: a memory and its index buckets keep arrival
    /// order and ids ascend, so what came later is a suffix. Costs what the
    /// run since the mark left behind, like [`reset`](Self::reset).
    pub(crate) fn rollback(&mut self, net: &AlphaNetwork, base: WmeId) {
        for m in self.touched.drain(..) {
            let mem = &mut self.mems[m as usize];
            let fixed = &net.mems[m as usize];
            mem.touched = false;
            mem.wmes.truncate(mem.wmes.partition_point(|&w| w < base));
            if mem.wmes.is_empty() {
                for ix in Self::indexes_of(&mut self.indexes, mem, fixed) {
                    ix.unbuild(self.pool.get_mut());
                }
                continue;
            }
            let pool = self.pool.get_mut();
            for (ix, _) in Self::built_indexes(&mut self.indexes, mem, fixed) {
                ix.truncate_into(|_, w| w < base, pool);
            }
        }
        self.shared_test_hits = self.marked_hits;
        self.profile = None;
    }

    /// Classifies a new WME into its memories, appending the activated
    /// memory ids to `hit` (in ascending order — the order a walk over the
    /// whole class would find them in) and accumulating the match cost in
    /// `work_units`. Ids must arrive in ascending order, as a
    /// [`WmStore`] hands them out.
    pub fn classify_add(
        &mut self,
        net: &AlphaNetwork,
        id: WmeId,
        wme: &Wme,
        work_units: &mut u64,
        hit: &mut Vec<AlphaMemId>,
    ) {
        self.generation += 1;
        let Some(dispatch) = net.by_class.get(&wme.class) else {
            return;
        };
        let (key, bucket) = dispatch.bucket(&wme.fields);
        // The keyed memories outside the bucket: a walk over the whole
        // class would have evaluated the first test of each and failed it.
        let skipped = (dispatch.table.len() - bucket.len()) as u64;
        if skipped > 0 {
            let evaluated = if net.share_tests {
                let in_bucket = bucket.iter().filter(|k| k.pays).count() as u64;
                let distinct = u64::from(dispatch.distinct_keyed_tests) - in_bucket;
                self.shared_test_hits += skipped - distinct;
                distinct
            } else {
                skipped
            };
            *work_units += evaluated * cost::ALPHA_TEST;
            if let Some(p) = &mut self.profile {
                for k in &dispatch.table {
                    if k.key != key && (k.pays || !net.share_tests) {
                        p[k.mem as usize].match_units += cost::ALPHA_TEST;
                    }
                }
            }
        }
        for m in Merged(&dispatch.always, bucket) {
            let fixed = &net.mems[m as usize];
            let mut pass = true;
            let mut mem_units = 0u64;
            for (t, &tid) in fixed.tests.iter().zip(&fixed.test_ids) {
                let ok = if net.share_tests {
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
                let mem = &mut self.mems[m as usize];
                debug_assert!(mem.wmes.last().is_none_or(|&last| last < id));
                if !mem.touched {
                    mem.touched = true;
                    self.touched.push(m);
                }
                mem.wmes.push(id);
                for (ix, slot) in Self::built_indexes(&mut self.indexes, mem, fixed) {
                    let key = wme.get(slot as usize).hash_key();
                    ix.push(key, id, self.pool.get_mut());
                    INDEXED.with(|n| n.set(n.get() + 1));
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
    /// the memories it was removed from to `hit` (ascending). Only the
    /// memories its addition visited are looked at — the others failed it
    /// on their first test — and within one the WME is found by binary
    /// search: ids are never reused and a memory keeps arrival order.
    pub fn classify_remove(
        &mut self,
        net: &AlphaNetwork,
        id: WmeId,
        wme: &Wme,
        work_units: &mut u64,
        hit: &mut Vec<AlphaMemId>,
    ) {
        let Some(dispatch) = net.by_class.get(&wme.class) else {
            return;
        };
        let (_, bucket) = dispatch.bucket(&wme.fields);
        for m in Merged(&dispatch.always, bucket) {
            let mem = &mut self.mems[m as usize];
            if let Ok(pos) = mem.wmes.binary_search(&id) {
                *work_units += cost::ALPHA_MEM_OP;
                // Order-preserving on purpose: a memory stays sorted by id
                // (arrival order), which the `binary_search` above and
                // `rollback`'s `partition_point` rely on.
                mem.wmes.remove(pos);
                let fixed = &net.mems[m as usize];
                if mem.wmes.is_empty() {
                    for ix in Self::indexes_of(&mut self.indexes, mem, fixed) {
                        ix.unbuild(self.pool.get_mut());
                    }
                } else {
                    for (ix, slot) in Self::built_indexes(&mut self.indexes, mem, fixed) {
                        let key = wme.get(slot as usize).hash_key();
                        ix.remove_item(key, id, self.pool.get_mut());
                    }
                }
                hit.push(m);
                if let Some(p) = &mut self.profile {
                    p[m as usize].match_units += cost::ALPHA_MEM_OP;
                }
            }
        }
    }

    /// Starts collecting per-memory profiling counters (resetting any
    /// previous collection).
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
    use crate::symbol::sym;
    use proptest::prelude::{prop, prop_assert, prop_oneof, proptest, ProptestConfig, Strategy};

    /// A network and one set of memories over it.
    struct Fed<'a> {
        net: &'a AlphaNetwork,
        mems: AlphaMemories,
    }

    impl Fed<'_> {
        fn new(net: &AlphaNetwork) -> Fed<'_> {
            let mems = AlphaMemories::new(net);
            Fed { net, mems }
        }

        fn add(&mut self, id: WmeId, w: &Wme, units: &mut u64) -> Vec<AlphaMemId> {
            let mut hit = Vec::new();
            self.mems.classify_add(self.net, id, w, units, &mut hit);
            hit
        }

        fn remove(&mut self, id: WmeId, w: &Wme, units: &mut u64) -> Vec<AlphaMemId> {
            let mut hit = Vec::new();
            self.mems.classify_remove(self.net, id, w, units, &mut hit);
            hit
        }
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
        let mut fed = Fed::new(&net);

        let mut w = Wme::new(c, 1, 1);
        w.set(0, Value::Int(500));
        let mut units = 0;
        let hit = fed.add(WmeId(0), &w, &mut units);
        assert_eq!(hit, vec![big, any]);
        assert!(units > 0);

        let mut small = Wme::new(c, 1, 2);
        small.set(0, Value::Int(5));
        let hit = fed.add(WmeId(1), &small, &mut units);
        assert_eq!(hit, vec![any]);

        assert_eq!(fed.remove(WmeId(0), &w, &mut units), vec![big, any]);
        assert_eq!(fed.mems.wmes(big).len(), 0);
        assert_eq!(fed.mems.wmes(any), [WmeId(1)]);
    }

    #[test]
    fn wrong_class_never_matches() {
        let mut net = AlphaNetwork::new();
        let succ = Successor { node: 0 };
        net.get_or_create(sym("region"), &[], succ);
        let w = Wme::new(sym("fragment"), 1, 1);
        let mut units = 0;
        assert!(Fed::new(&net).add(WmeId(0), &w, &mut units).is_empty());
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
        let (mut shared, mut unshared) = (Fed::new(&shared), Fed::new(&unshared));

        let mut w = Wme::new(c, 2, 1);
        w.set(0, Value::Int(9));
        w.set(1, Value::Int(9));
        let (mut su, mut uu) = (0u64, 0u64);
        assert_eq!(
            shared.add(WmeId(0), &w, &mut su),
            unshared.add(WmeId(0), &w, &mut uu),
            "sharing never changes classification"
        );
        assert_eq!(
            shared.mems.shared_test_hits, 1,
            "`>5` memoised for memory 2"
        );
        assert_eq!(su, uu - cost::ALPHA_TEST, "one test evaluation saved");

        // A failing WME still short-circuits identically.
        let mut w2 = Wme::new(c, 2, 2);
        w2.set(0, Value::Int(1));
        let (mut su2, mut uu2) = (0u64, 0u64);
        assert!(shared.add(WmeId(1), &w2, &mut su2).is_empty());
        assert!(unshared.add(WmeId(1), &w2, &mut uu2).is_empty());
        assert_eq!(su2, uu2 - cost::ALPHA_TEST);
    }

    #[test]
    fn slot_index_is_built_by_a_probe_and_unbuilt_when_its_memory_empties() {
        let mut net = AlphaNetwork::new();
        let c = sym("fragment");
        let m = net.get_or_create(c, &[], Successor { node: 0 });
        net.ensure_index(m, 0);
        net.ensure_index(m, 0); // idempotent
        let mut fed = Fed::new(&net);
        assert_eq!(fed.mems.indexes.len(), 1);
        let built = |fed: &Fed| fed.mems.indexes[0].built.get().is_some();
        let probe = |fed: &Fed, wm: &WmStore, v: Value| {
            fed.mems.probe(&net, wm, m, 0, v.hash_key()).to_vec()
        };

        let mut wm = WmStore::new();
        let add = |fed: &mut Fed, wm: &mut WmStore, v: i64| {
            let mut w = Wme::new(c, 1, wm.next_id().0 as u64 + 1);
            w.set(0, Value::Int(v));
            let id = wm.add(w.clone());
            fed.add(id, &w, &mut 0);
            (id, w)
        };
        let (w0, wme0) = add(&mut fed, &mut wm, 7);
        let (w1, _) = add(&mut fed, &mut wm, 7);
        add(&mut fed, &mut wm, 8);
        assert!(!built(&fed), "nothing has probed it");
        let inserted = AlphaMemories::index_insertions_on_this_thread();
        assert_eq!(probe(&fed, &wm, Value::Int(7)), [w0, w1]);
        assert!(built(&fed));
        assert_eq!(
            AlphaMemories::index_insertions_on_this_thread() - inserted,
            3
        );
        // Numeric coercion probes the same bucket.
        assert_eq!(probe(&fed, &wm, Value::Float(7.0)).len(), 2);
        assert_eq!(probe(&fed, &wm, Value::Int(9)), []);
        let key7 = Value::Int(7).hash_key();
        assert_eq!(
            fed.mems.probe(&net, &wm, m, 1, key7),
            [],
            "no index on slot 1"
        );

        // Built, it is kept up.
        let (w3, _) = add(&mut fed, &mut wm, 7);
        fed.remove(w0, &wme0, &mut 0);
        assert_eq!(probe(&fed, &wm, Value::Int(7)), [w1, w3]);

        // Reset empties the memory and unbuilds the index; the next probe
        // builds it again from what the memory holds then.
        fed.mems.reset(&net);
        assert!(fed.mems.wmes(m).is_empty() && !built(&fed));
        let (w4, wme4) = add(&mut fed, &mut wm, 7);
        assert!(!built(&fed));
        assert_eq!(probe(&fed, &wm, Value::Int(7)), [w4]);
        // A removal that empties the memory unbuilds it too.
        fed.remove(w4, &wme4, &mut 0);
        assert!(!built(&fed));
    }

    // -- dispatch ------------------------------------------------------------

    fn test_on(slot: u16, predicate: Predicate, v: Value) -> AlphaTest {
        AlphaTest {
            slot,
            predicate,
            arg: AlphaArg::Const(v),
        }
    }

    fn eq(slot: u16, v: Value) -> AlphaTest {
        test_on(slot, Predicate::Eq, v)
    }

    /// The executable specification of classification: every memory of the
    /// class walked in creation order, every test list run until it fails,
    /// every evaluation charged (once per distinct test per WME with
    /// sharing) — the network before it had a dispatch table, kept on
    /// plain lists of its own.
    struct LinearWalk {
        share: bool,
        /// `(class, tests, ids of the tests in `registry`)`.
        mems: Vec<(Symbol, Vec<AlphaTest>, Vec<usize>)>,
        wmes: Vec<Vec<WmeId>>,
        registry: Vec<AlphaTest>,
        memo: Vec<Option<bool>>,
        units: u64,
        shared_test_hits: u64,
        profile: Vec<AlphaMemCounters>,
    }

    impl LinearWalk {
        fn new(share: bool) -> LinearWalk {
            LinearWalk {
                share,
                mems: Vec::new(),
                wmes: Vec::new(),
                registry: Vec::new(),
                memo: Vec::new(),
                units: 0,
                shared_test_hits: 0,
                profile: Vec::new(),
            }
        }

        fn create(&mut self, class: Symbol, tests: &[AlphaTest]) {
            let ids = tests
                .iter()
                .map(|t| {
                    self.registry
                        .iter()
                        .position(|r| r == t)
                        .unwrap_or_else(|| {
                            self.registry.push(t.clone());
                            self.registry.len() - 1
                        })
                })
                .collect();
            self.mems.push((class, tests.to_vec(), ids));
            self.wmes.push(Vec::new());
            self.profile.push(AlphaMemCounters::default());
        }

        fn add(&mut self, id: WmeId, wme: &Wme) -> Vec<AlphaMemId> {
            self.memo.clear();
            self.memo.resize(self.registry.len(), None);
            let mut hit = Vec::new();
            for (m, (class, tests, ids)) in self.mems.iter().enumerate() {
                if *class != wme.class {
                    continue;
                }
                let mut units = 0;
                let mut pass = true;
                for (t, &tid) in tests.iter().zip(ids) {
                    let ok = match self.memo[tid] {
                        Some(r) if self.share => {
                            self.shared_test_hits += 1;
                            r
                        }
                        _ => {
                            units += cost::ALPHA_TEST;
                            let r = eval_alpha(t, &wme.fields);
                            self.memo[tid] = Some(r);
                            r
                        }
                    };
                    if !ok {
                        pass = false;
                        break;
                    }
                }
                let c = &mut self.profile[m];
                if pass {
                    units += cost::ALPHA_MEM_OP;
                    self.wmes[m].push(id);
                    hit.push(m as AlphaMemId);
                    c.activations += 1;
                    c.peak_wmes = c.peak_wmes.max(self.wmes[m].len() as u32);
                }
                c.match_units += units;
                self.units += units;
            }
            hit
        }

        fn remove(&mut self, id: WmeId) -> Vec<AlphaMemId> {
            let mut hit = Vec::new();
            for (m, wmes) in self.wmes.iter_mut().enumerate() {
                if let Some(pos) = wmes.iter().position(|&w| w == id) {
                    wmes.remove(pos);
                    self.units += cost::ALPHA_MEM_OP;
                    self.profile[m].match_units += cost::ALPHA_MEM_OP;
                    hit.push(m as AlphaMemId);
                }
            }
            hit
        }
    }

    /// A dispatching network beside its specification.
    struct Pair {
        net: AlphaNetwork,
        mems: AlphaMemories,
        spec: LinearWalk,
        units: u64,
    }

    impl Pair {
        fn build(share: bool, mems: &[(Symbol, Vec<AlphaTest>)]) -> Pair {
            let mut net = AlphaNetwork::with_sharing(share);
            let mut spec = LinearWalk::new(share);
            for (class, tests) in mems {
                let id = net.get_or_create(*class, tests, Successor { node: 0 });
                if id as usize == spec.mems.len() {
                    spec.create(*class, tests);
                }
            }
            net.build_dispatch();
            let mut mems = AlphaMemories::new(&net);
            mems.enable_profile();
            Pair {
                net,
                mems,
                spec,
                units: 0,
            }
        }

        /// Classifies an addition on both sides; `Err` names what differs.
        fn add(&mut self, id: WmeId, wme: &Wme) -> Result<Vec<AlphaMemId>, String> {
            let mut hit = Vec::new();
            self.mems
                .classify_add(&self.net, id, wme, &mut self.units, &mut hit);
            let want = self.spec.add(id, wme);
            self.agree(hit, want, &format!("add {wme}"))
        }

        fn remove(&mut self, id: WmeId, wme: &Wme) -> Result<Vec<AlphaMemId>, String> {
            let mut hit = Vec::new();
            self.mems
                .classify_remove(&self.net, id, wme, &mut self.units, &mut hit);
            let want = self.spec.remove(id);
            self.agree(hit, want, &format!("remove {wme}"))
        }

        fn agree(
            &self,
            hit: Vec<AlphaMemId>,
            want: Vec<AlphaMemId>,
            what: &str,
        ) -> Result<Vec<AlphaMemId>, String> {
            let (net, spec) = (&self.mems, &self.spec);
            if hit != want {
                return Err(format!("{what}: hit {hit:?}, a full walk hits {want:?}"));
            }
            if self.units != spec.units {
                let (got, want) = (self.units, spec.units);
                return Err(format!("{what}: {got} units, a full walk costs {want}"));
            }
            if net.shared_test_hits != spec.shared_test_hits {
                let (got, want) = (net.shared_test_hits, spec.shared_test_hits);
                return Err(format!("{what}: {got} memo hits, a full walk has {want}"));
            }
            if net.profile.as_ref() != Some(&spec.profile) {
                let (got, want) = (&net.profile, &spec.profile);
                return Err(format!("{what}: profile {got:?}, a full walk's {want:?}"));
            }
            for (m, want) in spec.wmes.iter().enumerate() {
                if net.mems[m].wmes != *want {
                    return Err(format!("{what}: memory {m} holds {:?}", net.mems[m].wmes));
                }
            }
            Ok(hit)
        }
    }

    fn wme_of(class: Symbol, fields: &[Value], tag: u64) -> Wme {
        let mut w = Wme::new(class, fields.len(), tag);
        for (i, &v) in fields.iter().enumerate() {
            w.set(i, v);
        }
        w
    }

    #[test]
    fn dispatch_keys_what_it_can_and_leaves_the_rest() {
        let (c, s) = (0u16, 1u16);
        let p = Value::symbol("pending");
        let pair = sym("dispatch-pair");
        let plain = sym("dispatch-plain");
        let mems: Vec<(Symbol, Vec<AlphaTest>)> = vec![
            // Keyed on slot c, three under one key: `3` twice (one first
            // test, two memories) and `3.0` (another test, same key).
            (pair, vec![eq(c, Value::Int(3)), eq(s, p)]),
            (
                pair,
                vec![eq(c, Value::Int(3)), test_on(s, Predicate::Ne, p)],
            ),
            (pair, vec![eq(c, Value::Float(3.0))]),
            (pair, vec![eq(c, Value::Int(4)), eq(s, p)]),
            // `c = 1` opens this memory and comes second in the next: its
            // memo entry depends on the walk, so neither is keyed.
            (pair, vec![eq(c, Value::Int(1)), eq(s, p)]),
            (pair, vec![eq(s, p), eq(c, Value::Int(1))]),
            // Not an equality, not a constant, no test at all.
            (pair, vec![test_on(c, Predicate::Gt, Value::Int(2))]),
            (pair, vec![]),
            // A class with nothing to discriminate on.
            (plain, vec![test_on(c, Predicate::Ne, Value::Int(1))]),
            (plain, vec![eq(s, p)]),
        ];
        for share in [true, false] {
            let mut both = Pair::build(share, &mems);
            let dispatch = &both.net.by_class[&pair];
            assert_eq!(dispatch.always, [4, 5, 6, 7]);
            let mut keyed: Vec<_> = dispatch.table.iter().map(|k| (k.mem, k.pays)).collect();
            keyed.sort_unstable();
            assert_eq!(keyed, [(0, true), (1, false), (2, true), (3, true)]);
            assert!(both.net.by_class[&plain].table.is_empty());
            assert_eq!(both.net.class_fanout(pair), Some((8, 4 + 3)));
            assert_eq!(both.net.class_fanout(plain), Some((2, 2)));

            let mut next = 0u32..;
            let mut add = |class, fields: &[Value]| {
                let id = WmeId(next.next().unwrap());
                let wme = wme_of(class, fields, u64::from(id.0) + 1);
                (id, both.add(id, &wme).unwrap(), wme)
            };
            // The bucket's memories come between the always-list's, by id.
            let (id3, hit, w3) = add(pair, &[Value::Float(3.0), p]);
            assert_eq!(hit, [0, 2, 6, 7]);
            assert_eq!(add(pair, &[Value::Int(4), p]).1, [3, 6, 7]);
            assert_eq!(add(pair, &[Value::Int(1), p]).1, [4, 5, 7]);
            // No bucket at all: every keyed memory is charged, none walked.
            assert_eq!(add(pair, &[Value::Nil, Value::Nil]).1, [7]);
            assert_eq!(add(plain, &[Value::Int(3), p]).1, [8, 9]);
            assert_eq!(both.remove(id3, &w3).unwrap(), [0, 2, 6, 7]);
        }
    }

    /// A constant from a pool small enough for tests and WMEs to collide:
    /// `3` beside `3.0`, both zeros, two symbols, nil.
    fn constant() -> impl Strategy<Value = Value> {
        (0usize..9).prop_map(|i| {
            [
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Float(3.0),
                Value::Int(0),
                Value::Float(-0.0),
                Value::Sym(Symbol(1)),
                Value::Sym(Symbol(2)),
                Value::Nil,
            ][i]
        })
    }

    const SLOTS: u16 = 3;

    fn alpha_test() -> impl Strategy<Value = AlphaTest> {
        let predicate = prop_oneof![
            6 => (0u8..1).prop_map(|_| Predicate::Eq),
            1 => (0u8..1).prop_map(|_| Predicate::Ne),
            1 => (0u8..1).prop_map(|_| Predicate::Gt),
        ];
        let arg = prop_oneof![
            6 => constant().prop_map(AlphaArg::Const),
            1 => prop::collection::vec(constant(), 1..3).prop_map(AlphaArg::Disj),
            1 => (0..SLOTS).prop_map(AlphaArg::OtherSlot),
        ];
        (0..SLOTS, predicate, arg).prop_map(|(slot, predicate, arg)| AlphaTest {
            slot,
            predicate,
            arg,
        })
    }

    /// One step of a random WME stream.
    #[derive(Clone, Debug)]
    enum Op {
        Add(usize, Vec<Value>),
        /// Remove the `n`-th live WME (modulo how many there are).
        Remove(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0usize..2, prop::collection::vec(constant(), 3..4))
                .prop_map(|(class, fields)| Op::Add(class, fields)),
            1 => (0usize..64).prop_map(Op::Remove),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The order-and-accounting proof of the dispatch: whatever the
        /// memories and the stream, the table reaches the memories a full
        /// walk would activate, in the walk's order, and the closed-form
        /// charge leaves units, memo hits and per-memory counters where
        /// the walk would — with test sharing and without.
        #[test]
        fn dispatch_agrees_with_a_linear_walk(
            mems in prop::collection::vec(
                (0usize..2, prop::collection::vec(alpha_test(), 0..4)),
                1..14,
            ),
            ops in prop::collection::vec(op(), 1..40),
        ) {
            let classes = [sym("dispatch-c0"), sym("dispatch-c1")];
            let mems: Vec<_> = mems.into_iter().map(|(c, tests)| (classes[c], tests)).collect();
            for share in [true, false] {
                let mut both = Pair::build(share, &mems);
                let mut live: Vec<(WmeId, Wme)> = Vec::new();
                let mut next = 0u32;
                for op in &ops {
                    let outcome = match op {
                        Op::Add(class, fields) => {
                            let id = WmeId(next);
                            next += 1;
                            let wme = wme_of(classes[*class], fields, u64::from(next));
                            let outcome = both.add(id, &wme);
                            live.push((id, wme));
                            outcome
                        }
                        Op::Remove(_) if live.is_empty() => continue,
                        Op::Remove(n) => {
                            let (id, wme) = live.remove(n % live.len());
                            both.remove(id, &wme)
                        }
                    };
                    if let Err(why) = outcome {
                        prop_assert!(false, "test sharing {}: {}", share, why);
                    }
                }
            }
        }
    }
}
