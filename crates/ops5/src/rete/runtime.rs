//! The beta network: incremental token maintenance.
//!
//! The implementation follows the token-tree formulation (Doorenbos 1995) of
//! Forgy's Rete. Productions compile to linear chains of join / negative
//! nodes; the runtime folds those chains into a *trie*: productions whose
//! chain prefixes are structurally identical share the prefix nodes and
//! their token memories (Doorenbos-style node sharing), and a node where
//! several chains end carries one terminal entry per production. Tokens form
//! a tree rooted at a per-root dummy; WME removal deletes token subtrees
//! through a WME→token index; negative nodes keep, per token, the list of
//! WMEs currently blocking it, plus a blocker→tokens map so removals
//! unblock without scanning.
//!
//! With [`ReteConfig::index`] the equality joins stop scanning: each alpha
//! memory has hash indexes over the slots its successors join on, built by
//! the first probe ([`AlphaMemories::probe`]), and each beta node keeps a
//! hash index over the token population its right activations pair
//! against, keyed by the token-side value of its first equality test.
//! Probes are charged [`cost::INDEX_PROBE`]. The index is a prefilter:
//! `Value::hash_key` collides wherever `ops_eq` holds, and a retrieved
//! candidate either runs its join tests or, when the fingerprint of its
//! node's *other* equality keys differs from the arriving WME's, is
//! skipped unloaded — a mismatch proves an equality test fails. Either way
//! it is charged its full join tests ([`NetStats::fingerprint_skips`]
//! counts the skips).
//!
//! [`ReteConfig::unshared()`] rebuilds the seed network — one private chain
//! per production, linear scans, identical work-unit accounting — which is
//! the baseline `bench_rete` and the differential tests compare against.
//!
//! [`ReteConfig::index`]: crate::ReteConfig::index
//! [`ReteConfig::unshared()`]: crate::ReteConfig::unshared
//!
//! Nodes, tests and successor lists are the [`Network`]'s, built once per
//! program and shared; a [`Rete`] is that network plus the memories of one
//! engine, and everything below only ever writes to the memories.
//!
//! Every activation (alpha classification, right/left activation of a node)
//! is counted as one *match chunk* — the unit of parallelism ParaOPS5
//! schedules across dedicated match processes (§3.1 of the paper: "subtasks
//! execute only about 100 instructions"). That holds for a right activation
//! that cannot pair, too — one whose token population is empty, or a removal
//! that unblocks nothing: it is decided before it is made, and charged and
//! counted as if it had been ([`NetStats::null_right_activations`]).

use super::alpha::{AlphaMemId, AlphaMemories, AlphaNetwork};
use super::compile::JoinTest;
use super::network::Network;
use crate::buckets::{give_list, take_list, Buckets, MulHasher, Pool, SlotCursor};
use crate::instrument::{cost, WorkCounters};
use crate::matcher::MatchEvents;
use crate::profile::{AlphaMemProfile, ChainCounters, MatchProfile, NetStats, ProductionProfile};
use crate::wme::{WmStore, WmeId};
use std::hash::Hasher;
use std::sync::Arc;

const DUMMY: u32 = u32::MAX;

/// Minimum population of a memory before an equality join probes its hash
/// index instead of scanning. Below this, a linear scan is at most one
/// join-test evaluation per resident — no dearer than the probe itself —
/// so small memories stay on the scan path (the classic list-vs-hashed
/// memory trade-off; most memories in a production system hold zero or one
/// entries at any instant, and probing those would be pure overhead). The
/// same argument prices the upkeep: an alpha memory's index is built by
/// the first probe that passes this gate, so a memory no join probes keeps
/// none up.
const INDEX_MIN_POPULATION: usize = 2;

#[derive(Clone, Debug, Default)]
struct TokenData {
    parent: u32,
    wme: Option<WmeId>,
    /// Beta node the token is resident at.
    node: u32,
    /// Chain level of `node` (cached for `load_chain`).
    level: u16,
    children: Vec<u32>,
    /// For tokens resident at a negative node: WMEs currently blocking.
    neg_results: Vec<WmeId>,
    /// Right-index registrations `(node, fingerprint, key)` to undo on
    /// deletion.
    index_keys: Vec<(u32, u32, u64)>,
    /// `None` unless the token is active at a node where productions end.
    emitted: Emission,
    alive: bool,
    /// Alive when the network was last marked ([`Rete::mark`]): a rollback
    /// keeps it, and deleting it breaks the mark.
    base: bool,
}

impl TokenData {
    /// Leaves the slot as deletion would: dead, its lists empty with their
    /// capacity.
    fn clean(&mut self) {
        self.children.clear();
        self.neg_results.clear();
        self.index_keys.clear();
        self.emitted = Emission::None;
        self.alive = false;
        self.base = false;
    }
}

/// What a token at a terminal node has in the conflict set, or on its way
/// there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Emission {
    #[default]
    None,
    /// Satisfied since the last drain: its place in [`BetaState::pending`].
    /// No instantiation exists yet; a retraction before the drain cancels
    /// the entry and nothing ever reaches the conflict set.
    Pending(u32),
    /// Handed over by a drain, named by the token's slot. Its retraction
    /// carries that name and rebuilds the key from the token's parent chain
    /// ([`Activation::emit_retract`]).
    Delivered,
}

/// What a run changes at one beta node.
#[derive(Clone, Debug, Default)]
struct NodeMemory {
    /// Tokens resident at this node (for negative nodes, including blocked).
    tokens: Vec<u32>,
    /// Hash index over the token population this node's *right* activations
    /// pair against (the parent's residents for positive nodes, this node's
    /// own residents for negative nodes), keyed by the token-side value of
    /// `join_tests[key_test]`.
    right_index: Buckets<u64, Entry>,
    /// For negative nodes: blocker WME → tokens it currently blocks.
    blocked_by: Buckets<WmeId, u32>,
    /// True once something has been put in this memory since the last
    /// reset or mark: the node is then on [`BetaState::touched`].
    touched: bool,
}

/// A right-index entry: a token, and the fingerprint of the values its
/// chain brings to the node's other equality tests (the node's
/// `fingerprint_tests`). Eight bytes: an index costs twice a bare token
/// list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    token: u32,
    fingerprint: u32,
}

/// Node `n`'s memory, for putting something in it: the node is noted for
/// [`Rete::reset`] and [`Rete::rollback`], which visit the noted memories
/// and look at no other.
#[inline]
fn touch<'a>(mems: &'a mut [NodeMemory], touched: &mut Vec<u32>, n: u32) -> &'a mut NodeMemory {
    let m = &mut mems[n as usize];
    if !m.touched {
        m.touched = true;
        touched.push(n);
    }
    m
}

/// The Rete of one engine instance: the program's [`Network`], shared, and
/// this engine's memories over it.
#[derive(Clone, Debug)]
pub struct Rete {
    net: Arc<Network>,
    alpha: AlphaMemories,
    /// Accumulated match work.
    pub work: WorkCounters,
    beta: BetaState,
    /// Scratch: the alpha memories one WME change touched.
    touched: Vec<AlphaMemId>,
    /// What [`Rete::rollback`] returns to, once [`Rete::mark`] has taken it.
    mark: Option<Mark>,
}

/// The network's state at a [`Rete::mark`], as far as it is not in the
/// memories themselves: there the base is a prefix of every list (lists keep
/// arrival order) and is told from what came later by WME id and by
/// [`TokenData::base`].
#[derive(Clone, Debug)]
struct Mark {
    /// The first WME id handed out after the mark.
    base: WmeId,
    work: WorkCounters,
    chunks: u32,
    stats: NetStats,
    slots: SlotCursor,
    /// The node memories the base had touched: a rollback leaves them
    /// alone, a reset empties them too.
    touched: Vec<u32>,
}

/// Everything on the beta side that a run changes, apart from `work`:
/// token memories, the pending events, run statistics, and the scratch
/// buffers activations borrow. All of it keeps its capacity over
/// [`Rete::reset`].
#[derive(Clone, Debug, Default)]
struct BetaState {
    /// Parallel to the network's nodes.
    mems: Vec<NodeMemory>,
    /// The nodes whose memory may hold something put there since the last
    /// reset or mark (see [`touch`]).
    touched: Vec<u32>,
    /// Something of the base has gone since the mark — a WME, or a token
    /// under a negated element that a later WME blocked: there is no prefix
    /// to cut back to, and [`Rete::rollback`] declines.
    mark_broken: bool,
    /// Token slots. Those below `slots.high_water()` have been handed out
    /// since the network was built or last reset; those above keep, empty,
    /// the lists an earlier run grew.
    tokens: Vec<TokenData>,
    slots: SlotCursor,
    /// WME → the tokens whose own WME it is.
    wme_tokens: Buckets<WmeId, u32>,
    /// Tokens that reached a terminal since the last drain, in the order
    /// they did; [`DUMMY`] where a retraction cancelled the entry. Sized by
    /// the busiest firing.
    pending: Vec<u32>,
    /// Retractions of instantiations an earlier drain handed over.
    events: MatchEvents,
    chunks: u32,
    /// Always-on sharing/indexing statistics (not part of the work model).
    stats: NetStats,
    /// Per-node profiling counters plus token totals; `Some` only while
    /// profiling. Hooks read `work` deltas — they never write counters.
    profile: Option<ReteProfile>,
    /// The WMEs of the token chain an activation is working under, by node
    /// level (`None` at negative-node levels); one entry per level of the
    /// deepest chain. See [`BetaState::load_chain`].
    chain: Vec<Option<WmeId>>,
    /// Spare token lists: blocker lists and `wme_tokens` entries.
    pool: Pool<u32>,
    /// Spare entry lists: right-index buckets and the candidate snapshots
    /// right activations iterate.
    entries: Pool<Entry>,
}

impl BetaState {
    /// Writes the WMEs of token `t`'s chain into `chain[..=level]`.
    ///
    /// One buffer serves nested activations because the recursion only
    /// descends: while a loop works under token `t` at level `L`, every
    /// chain loaded beneath it belongs to a descendant of `t`, whose first
    /// `L + 1` entries *are* `t`'s chain — so they are rewritten with the
    /// values they already hold, and only deeper entries change. (The drain
    /// runs under no activation.)
    fn load_chain(&mut self, t: u32) {
        let mut cur = t;
        loop {
            let td = &self.tokens[cur as usize];
            self.chain[td.level as usize] = td.wme;
            if td.parent == DUMMY {
                break;
            }
            cur = td.parent;
        }
    }
}

/// Collection state for match-level profiling of one Rete instance.
#[derive(Clone, Debug, Default)]
struct ReteProfile {
    nodes: Vec<ChainCounters>,
    tokens_created: u64,
    tokens_deleted: u64,
}

impl Rete {
    /// The memories of one engine over `net`, all empty: a list per node
    /// and per alpha memory, none of which has allocated yet — no hashing,
    /// no sorting, no walk over the chains, and dropping it frees only what
    /// a run grew. It answers any WME stream exactly as every other
    /// instance of `net` does, whatever those are doing meanwhile: nothing
    /// an instance writes is in the network.
    pub fn instantiate(net: Arc<Network>) -> Rete {
        let beta = BetaState {
            mems: vec![NodeMemory::default(); net.nodes.len()],
            stats: NetStats {
                beta_nodes: net.beta_nodes() as u32,
                unshared_beta_nodes: net.unshared_beta_nodes(),
                ..NetStats::default()
            },
            chain: vec![None; net.depth],
            ..BetaState::default()
        };
        Rete {
            alpha: AlphaMemories::new(&net.alpha),
            net,
            work: WorkCounters::default(),
            beta,
            touched: Vec::new(),
            mark: None,
        }
    }

    /// Sharing/indexing statistics, cumulative since construction. Counted
    /// unconditionally (no profiler needed) and outside the work-unit
    /// model, so work totals are unaffected.
    pub fn net_stats(&self) -> NetStats {
        let mut s = self.beta.stats;
        s.shared_test_hits = self.alpha.shared_test_hits;
        s
    }

    /// This engine's alpha memories, and the half of the alpha network the
    /// build fixed that they are read through.
    pub fn alpha(&self) -> (&AlphaNetwork, &AlphaMemories) {
        (&self.net.alpha, &self.alpha)
    }

    /// Empties the network without rebuilding it: every token, memory,
    /// index bucket, blocker list and pending event goes, the work, chunk
    /// and per-run [`NetStats`] counters return to zero and profiling is
    /// detached; nodes, tests, successor lists, declared indexes and every
    /// buffer's capacity stay (token slots keep their lists, buckets go
    /// back to the pool). Token ids restart at 0 and no result is read out
    /// of a hash map's order, so the network then answers any WME
    /// stream exactly as a new [`Rete::instantiate`] of the same network
    /// would — same events in the same order, same work, same statistics.
    ///
    /// The cost follows what the last run left behind, not the size of the
    /// network: only the node and alpha memories the run put something in
    /// and the token slots it handed out are visited; token ids then
    /// start over as in a new network ([`SlotCursor`]).
    pub fn reset(&mut self) {
        self.alpha.reset(&self.net.alpha);
        let b = &mut self.beta;
        let base_touched = self.mark.take().map_or_else(Vec::new, |m| m.touched);
        b.mark_broken = false;
        for n in b.touched.drain(..).chain(base_touched) {
            let m = &mut b.mems[n as usize];
            m.touched = false;
            m.tokens.clear();
            m.right_index.clear_into(&mut b.entries);
            m.blocked_by.clear_into(&mut b.pool);
        }
        // Deletion leaves a slot clean; these are the tokens still alive.
        for t in b.tokens[..b.slots.high_water()]
            .iter_mut()
            .filter(|t| t.alive)
        {
            t.clean();
        }
        b.slots.restart();
        b.wme_tokens.clear_into(&mut b.pool);
        b.pending.clear();
        b.events.clear();
        self.work = WorkCounters::default();
        b.chunks = 0;
        b.stats = NetStats {
            beta_nodes: b.stats.beta_nodes,
            unshared_beta_nodes: b.stats.unshared_beta_nodes,
            ..NetStats::default()
        };
        b.profile = None;
    }

    /// Makes the network's state now — the *base* — what
    /// [`Rete::rollback`] returns to; `wm` is the store the WMEs so far
    /// were made in. Declines (`false`, and the network is unmarked) unless
    /// nothing is on its way to or in the conflict set: no pending event and
    /// no live token at a terminal, so a rollback has no instantiation to
    /// give back.
    ///
    /// **The mark contract.** After a rollback the network answers any WME
    /// stream exactly as a newly built one that had first been sent the
    /// base would: same events in the same order, same work, chunks and
    /// statistics (the base's included), same token ids. That holds while
    /// the base stays whole: removing a base WME, or blocking a base token
    /// whose children are base tokens, *breaks* the mark, and the rollback
    /// declines.
    pub fn mark(&mut self, wm: &WmStore) -> bool {
        let b = &mut self.beta;
        let handed_out = &mut b.tokens[..b.slots.high_water()];
        let in_flight = |t: &TokenData| t.alive && t.emitted != Emission::None;
        if !(b.pending.is_empty() && b.events.is_empty()) || handed_out.iter().any(in_flight) {
            // An earlier mark stays to tell `reset` which memories its base
            // touched, but nothing rolls back to it any more.
            b.mark_broken = true;
            return false;
        }
        for t in handed_out {
            t.base = t.alive;
        }
        self.alpha.mark();
        // The memories an earlier mark's base touched are this one's too.
        let mut touched = self.mark.take().map_or_else(Vec::new, |m| m.touched);
        for &n in &b.touched {
            b.mems[n as usize].touched = false;
        }
        touched.append(&mut b.touched);
        b.mark_broken = false;
        self.mark = Some(Mark {
            base: wm.next_id(),
            work: self.work,
            chunks: b.chunks,
            stats: b.stats,
            slots: b.slots.clone(),
            touched,
        });
        true
    }

    /// Returns the network to its last [`Rete::mark`] — every memory, index
    /// bucket, blocker list and token list cut back to its base prefix, the
    /// tokens made since cleaned, pending events dropped, the work, chunk
    /// and [`NetStats`] counters and the slot cursor as they were, profiling
    /// detached — or declines (`false`, nothing changed) when there is no
    /// mark or it is broken; the caller then resets. Like [`Rete::reset`]
    /// it visits only the memories something was put in since the mark and
    /// the token slots handed out.
    pub fn rollback(&mut self) -> bool {
        let Some(mark) = &self.mark else {
            return false;
        };
        if self.beta.mark_broken {
            return false;
        }
        let base = mark.base;
        self.alpha.rollback(&self.net.alpha, base);
        let BetaState {
            mems,
            touched,
            tokens,
            pool,
            entries,
            wme_tokens,
            slots,
            ..
        } = &mut self.beta;
        let is_base = |tokens: &[TokenData], t: u32| tokens[t as usize].base;
        for n in touched.drain(..) {
            let m = &mut mems[n as usize];
            m.touched = false;
            while m.tokens.last().is_some_and(|&t| !is_base(tokens, t)) {
                m.tokens.pop();
            }
            m.right_index
                .truncate_into(|_, e| is_base(tokens, e.token), entries);
            m.blocked_by
                .truncate_into(|w, t| w < base && is_base(tokens, t), pool);
        }
        wme_tokens.truncate_into(|w, t| w < base && is_base(tokens, t), pool);
        // The cursor only moves up between restarts: every slot handed out
        // before or since the mark is below it.
        for i in 0..slots.high_water() {
            if !tokens[i].alive {
                continue;
            }
            if !tokens[i].base {
                tokens[i].clean();
                continue;
            }
            // A base token sheds the children and blockers it has got
            // since; nothing at a terminal was base, so it has emitted
            // nothing.
            let mut children = std::mem::take(&mut tokens[i].children);
            while children.last().is_some_and(|&c| !is_base(tokens, c)) {
                children.pop();
            }
            let t = &mut tokens[i];
            t.children = children;
            while t.neg_results.last().is_some_and(|&w| w >= base) {
                t.neg_results.pop();
            }
            debug_assert_eq!(t.emitted, Emission::None);
        }
        let b = &mut self.beta;
        b.slots.clone_from(&mark.slots);
        b.pending.clear();
        b.events.clear();
        self.work = mark.work;
        b.chunks = mark.chunks;
        b.stats = mark.stats;
        b.profile = None;
        true
    }

    /// Drains the conflict-set changes since the last drain
    /// ([`Rete::drain_events_into`]) into a new batch.
    pub fn drain_events(&mut self, wm: &WmStore) -> MatchEvents {
        let mut out = MatchEvents::new();
        self.drain_events_into(wm, &mut out);
        out
    }

    /// Appends the *net* conflict-set changes since the last drain to
    /// `out`: the retractions of instantiations an earlier drain handed
    /// over, then one insert per terminal of every token that reached one
    /// and is still there, its lists written into `out` once for all its
    /// terminals. A token that came and went between two drains —
    /// a `modify` un-blocks a negated element with its remove and re-blocks
    /// it with its add — leaves no event, and its instantiation is never
    /// written. Retractions can go first because two live tokens never share
    /// a `(production, wmes)` key: whatever held the key of a surviving
    /// insert before it was retracted before it.
    ///
    /// Every instantiation is named by its token's slot
    /// ([`crate::matcher`]'s naming contract). A slot is a live token's
    /// alone, and a token's retraction is written before its slot is given
    /// back (`Activation::emit_retract`); so when a slot is named again —
    /// by a token that reached a terminal since — the retraction of its
    /// last holder is already in `out`, ahead of the insert.
    ///
    /// `wm` is the store the WME changes were made against; every WME of a
    /// live token is live in it. All buffers keep their capacity.
    pub fn drain_events_into(&mut self, wm: &WmStore, out: &mut MatchEvents) {
        let b = &mut self.beta;
        out.append(&mut b.events);
        for i in 0..b.pending.len() {
            let t = b.pending[i];
            if t == DUMMY {
                continue;
            }
            b.load_chain(t);
            let td = &mut b.tokens[t as usize];
            td.emitted = Emission::Delivered;
            let node = &self.net.nodes[td.node as usize];
            let wmes = b.chain[..=node.level as usize].iter().flatten();
            let tags = wmes.clone().map(|&w| wm.time_tag(w));
            out.push_inserts(t, &node.terminals, wmes.copied(), tags);
        }
        b.pending.clear();
    }

    /// Number of independently schedulable match activations since the last
    /// call (feeds the ParaOPS5 match-parallelism cost model).
    pub fn take_chunks(&mut self) -> u32 {
        std::mem::take(&mut self.beta.chunks)
    }

    /// Starts collecting a match-level profile (per-node cost attribution,
    /// alpha-memory heat, token totals), resetting any previous collection.
    pub fn enable_profile(&mut self) {
        self.alpha.enable_profile();
        self.beta.profile = Some(ReteProfile {
            nodes: vec![ChainCounters::default(); self.net.nodes.len()],
            ..Default::default()
        });
    }

    /// Takes the collected profile, if profiling was enabled; collection
    /// continues with fresh counters. Per-node counters are folded into
    /// per-production entries: a node shared by several productions
    /// attributes its whole cost to the lowest-indexed one (the
    /// [`NetStats::shared_node_hits`] counter records how much activation
    /// traffic ran on shared nodes). Alpha memories receive their labels.
    pub fn take_profile(&mut self) -> Option<MatchProfile> {
        let p = self.beta.profile.take()?;
        self.beta.profile = Some(ReteProfile {
            nodes: vec![ChainCounters::default(); self.net.nodes.len()],
            ..Default::default()
        });
        let alpha = self.alpha.take_profile().unwrap_or_default();
        let mut productions = vec![ProductionProfile::default(); self.net.n_productions];
        for (node, c) in self.net.nodes.iter().zip(&p.nodes) {
            let pp = &mut productions[node.rep_prod as usize];
            pp.match_units += c.match_units;
            pp.activations += c.activations;
            pp.tokens += c.tokens;
        }
        let alpha_mems = alpha
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mem = self.net.alpha.mem(i as AlphaMemId);
                AlphaMemProfile {
                    label: format!("{} ({} tests)", mem.class, mem.tests.len()),
                    tests: mem.tests.len() as u32,
                    activations: a.activations,
                    match_units: a.match_units,
                    peak_wmes: a.peak_wmes,
                }
            })
            .collect();
        Some(MatchProfile {
            productions,
            alpha_mems,
            tokens_created: p.tokens_created,
            tokens_deleted: p.tokens_deleted,
            net: self.net_stats(),
            ..Default::default()
        })
    }

    /// The split borrows of one WME change (after its alpha classification).
    fn activation<'a>(&'a mut self, wm: &'a WmStore) -> Activation<'a> {
        Activation {
            net: &self.net,
            mems: &self.alpha,
            wm,
            indexed: self.net.config().index(),
            work: &mut self.work,
            beta: &mut self.beta,
        }
    }

    /// Processes a WME addition. `id` must already be live in `wm`.
    pub fn add_wme(&mut self, id: WmeId, wm: &WmStore) {
        let wme = wm.get(id).expect("add_wme: wme must be live");
        self.beta.chunks += 1;
        let mut touched = std::mem::take(&mut self.touched);
        let units = &mut self.work.match_units;
        self.alpha
            .classify_add(&self.net.alpha, id, wme, units, &mut touched);
        let mut act = self.activation(wm);
        let net = act.net;
        for &m in &touched {
            for s in &net.alpha.mem(m).successors {
                // Decided as the walk reaches the node: a population an
                // earlier successor filled is paired against.
                if act.null_right_add(s.node) {
                    continue;
                }
                let before = act.work.match_units;
                act.right_activate_add(s.node, id);
                act.charge_node(s.node, before);
            }
        }
        touched.clear();
        self.touched = touched;
    }

    /// Processes a WME removal. Must be called while `id` is still live in
    /// `wm` (the engine removes it from the store afterwards).
    pub fn remove_wme(&mut self, id: WmeId, wm: &WmStore) {
        let wme = wm.get(id).expect("remove_wme: wme must still be live");
        if self.mark.as_ref().is_some_and(|m| id < m.base) {
            self.beta.mark_broken = true;
        }
        self.beta.chunks += 1;
        let mut touched = std::mem::take(&mut self.touched);
        let units = &mut self.work.match_units;
        self.alpha
            .classify_remove(&self.net.alpha, id, wme, units, &mut touched);
        let mut act = self.activation(wm);
        let net = act.net;
        // Negative nodes first: unblock tokens whose blocker disappeared
        // (found through the blocker→tokens map, not a token scan).
        for &m in &touched {
            for &n in &net.negated_successors[m as usize] {
                let before = act.work.match_units;
                act.right_activate_remove(n, id);
                act.charge_node(n, before);
            }
        }
        // Then delete every token whose own WME is the removed one.
        act.delete_tokens_of(id);
        touched.clear();
        self.touched = touched;
    }
}

/// One WME change working its way through the beta network. The borrows are
/// split so that what the build fixed (`net`) and, once the WME
/// is classified, the alpha memories (`mems`) are shared for the whole
/// activation while `beta` and `work` are exclusive: join tests, child and
/// terminal lists, successor lists and alpha-memory candidate lists are read
/// in place — the borrow checker, not a copy, is what guarantees nothing
/// changes them under a loop.
struct Activation<'a> {
    net: &'a Network,
    mems: &'a AlphaMemories,
    wm: &'a WmStore,
    indexed: bool,
    work: &'a mut WorkCounters,
    beta: &'a mut BetaState,
}

impl<'a> Activation<'a> {
    /// Attributes the match work done since `before` to node `n`.
    fn charge_node(&mut self, n: u32, before: u64) {
        if let Some(p) = &mut self.beta.profile {
            p.nodes[n as usize].match_units += self.work.match_units - before;
        }
    }

    /// Counts one activation of node `n`.
    fn count_activation(&mut self, n: u32) {
        self.beta.chunks += 1;
        if let Some(p) = &mut self.beta.profile {
            p.nodes[n as usize].activations += 1;
        }
    }

    /// Decides, before making it, whether a right activation of `n` by a
    /// WME addition can pair: not when the population it pairs against
    /// holds no token. Such a *null* activation is charged exactly what
    /// making it charges — one chunk and the profile's activation, a
    /// shared-node hit if the node is shared, the linear scan of an empty
    /// population (below
    /// [`INDEX_MIN_POPULATION`] nothing probes), no unit — counted, and not
    /// made (true). Doorenbos' right unlinking, without the unlinking: SPAM's
    /// phases gate every rule on `control`, so in any task most joins a WME
    /// reaches belong to rules of another phase and have nothing to pair with.
    #[inline]
    fn null_right_add(&mut self, n: u32) -> bool {
        let facts = self.net.right[n as usize];
        let Some(population) = facts.population else {
            return false;
        };
        if !self.beta.mems[population as usize].tokens.is_empty() {
            return false;
        }
        self.count_activation(n);
        let stats = &mut self.beta.stats;
        stats.shared_node_hits += u64::from(facts.shared);
        stats.linear_scans += 1;
        stats.null_right_activations += 1;
        true
    }

    /// A snapshot of the token population a right activation of `n` by
    /// `w` pairs against: the parent's residents for positive nodes, `n`'s
    /// own for negative nodes — the indexed candidates (charging the probe)
    /// when `n` has a key test, else the whole population (counted as a
    /// scan). With the indexed candidates comes `w`'s fingerprint of `n`'s
    /// other equality keys, when `n` has any: a candidate whose entry
    /// carries another fails a test. The caller gives the list back to the
    /// pool.
    fn right_candidates(&mut self, n: u32, w: WmeId) -> (Vec<Entry>, Option<u32>) {
        let node = &self.net.nodes[n as usize];
        let mut out = take_list(&mut self.beta.entries);
        let Some(resident_at) = self.net.right[n as usize].population else {
            return (out, None);
        };
        let population = &self.beta.mems[resident_at as usize].tokens;
        if let (Some(kt), true) = (node.key_test, population.len() >= INDEX_MIN_POPULATION) {
            let wme = self.wm.get(w);
            let key = wme
                .map(|wme| wme.get(node.join_tests[kt].my_slot as usize).hash_key())
                .unwrap_or_default();
            let wanted = wme
                .filter(|_| !node.fingerprint_tests.is_empty())
                .map(|wme| {
                    let keys = node.fingerprint_tests.iter();
                    fingerprint(keys.map(|t| wme.get(t.my_slot as usize).hash_key()))
                });
            self.work.match_units += cost::INDEX_PROBE;
            self.beta.stats.index_probes += 1;
            out.extend_from_slice(self.beta.mems[n as usize].right_index.get(key));
            return (out, wanted);
        }
        self.beta.stats.linear_scans += 1;
        out.extend(population.iter().map(|&token| Entry {
            token,
            fingerprint: 0,
        }));
        (out, None)
    }

    /// Charges the join tests of a candidate that passed its checks and
    /// tells whether to evaluate it: not when its entry's fingerprint
    /// differs from the arriving WME's `wanted` one. A skip is charged what
    /// the evaluation it replaces charges, and counted.
    #[inline]
    fn charge_candidate(&mut self, tests: usize, wanted: Option<u32>, e: Entry) -> bool {
        self.work.match_units += tests as u64 * cost::JOIN_TEST;
        if wanted.is_some_and(|f| f != e.fingerprint) {
            self.beta.stats.fingerprint_skips += 1;
            return false;
        }
        true
    }

    /// Candidate WMEs for pairing the loaded chain (of a token at level
    /// `chain_len - 1`) against node `n`'s alpha memory: an indexed probe
    /// when possible, else the full memory (counted as a scan). Borrowed
    /// from the alpha network, which no beta activation can change.
    fn left_candidates(&mut self, n: u32, chain_len: usize) -> &'a [WmeId] {
        let node = &self.net.nodes[n as usize];
        let (alpha, mems) = (&self.net.alpha, self.mems);
        let wmes = mems.wmes(node.alpha_mem);
        if let Some(kt) = node.key_test {
            if wmes.len() >= INDEX_MIN_POPULATION {
                let test = node.join_tests[kt];
                self.work.match_units += cost::INDEX_PROBE;
                self.beta.stats.index_probes += 1;
                return match token_side_key(&self.beta.chain[..chain_len], &test, self.wm) {
                    Some(key) => mems.probe(alpha, self.wm, node.alpha_mem, test.my_slot, key),
                    // The referenced ancestor is gone; no candidate could
                    // pass the full tests either.
                    None => &[],
                };
            }
        }
        self.beta.stats.linear_scans += 1;
        wmes
    }

    fn right_activate_add(&mut self, n: u32, w: WmeId) {
        let node = &self.net.nodes[n as usize];
        self.count_activation(n);
        if node.n_prods > 1 {
            self.beta.stats.shared_node_hits += 1;
        }
        let tests = &node.join_tests[..];
        let chain_len = node.level as usize + usize::from(node.negated);
        if node.negated {
            // The blocked tokens' descendants go, but they live at deeper
            // nodes: `n`'s own population is what the snapshot says.
            let (toks, wanted) = self.right_candidates(n, w);
            for &e in &toks {
                let t = e.token;
                if !self.beta.tokens[t as usize].alive {
                    continue;
                }
                if !self.charge_candidate(tests.len(), wanted, e) {
                    continue;
                }
                self.beta.load_chain(t);
                if eval_tests(tests, &self.beta.chain[..chain_len], w, self.wm) {
                    let nr = &mut self.beta.tokens[t as usize].neg_results;
                    // The token may already hold `w` when it was created
                    // during this very addition (its initial blocker scan
                    // saw the memory with `w` inside); blockers are a set.
                    if !nr.contains(&w) {
                        nr.push(w);
                        let first = nr.len() == 1;
                        let b = &mut *self.beta;
                        touch(&mut b.mems, &mut b.touched, n)
                            .blocked_by
                            .push(w, t, &mut b.pool);
                        if first {
                            self.block_token(t);
                        }
                    }
                }
            }
            give_list(&mut self.beta.entries, toks);
        } else if node.level == 0 {
            debug_assert!(tests.is_empty(), "first node has no join tests");
            self.new_token(n, DUMMY, Some(w));
        } else {
            let parent_negated = node
                .parent
                .is_some_and(|p| self.net.nodes[p as usize].negated);
            let (parents, wanted) = self.right_candidates(n, w);
            for &e in &parents {
                let t = e.token;
                let td = &self.beta.tokens[t as usize];
                if !td.alive {
                    continue;
                }
                if parent_negated && !td.neg_results.is_empty() {
                    continue; // blocked parents have no output
                }
                if !self.charge_candidate(tests.len(), wanted, e) {
                    continue;
                }
                self.beta.load_chain(t);
                let chain = &self.beta.chain[..chain_len];
                // A parent whose chain holds `w` was made during this very
                // addition, when `w` was already in `n`'s alpha memory: its
                // left activation made this pair. A second token would be
                // a second live instantiation of one key.
                if eval_tests(tests, chain, w, self.wm) && !chain.contains(&Some(w)) {
                    self.new_token(n, t, Some(w));
                }
            }
            give_list(&mut self.beta.entries, parents);
        }
    }

    /// WME `w` left negative node `n`'s alpha memory: unblock the tokens it
    /// was blocking. Blocking none, the activation is null: charged its
    /// chunk and counted.
    fn right_activate_remove(&mut self, n: u32, w: WmeId) {
        self.count_activation(n);
        let Some(toks) = self.beta.mems[n as usize].blocked_by.take(w) else {
            self.beta.stats.null_right_activations += 1;
            return;
        };
        for &t in &toks {
            let td = &mut self.beta.tokens[t as usize];
            if !td.alive {
                continue;
            }
            if let Some(pos) = td.neg_results.iter().position(|&b| b == w) {
                td.neg_results.remove(pos);
                self.work.match_units += cost::TOKEN_OP;
                if self.beta.tokens[t as usize].neg_results.is_empty() {
                    self.beta.load_chain(t);
                    self.propagate(n, t);
                }
            }
        }
        give_list(&mut self.beta.pool, toks);
    }

    /// Deletes every token whose own WME is `w`, which is leaving working
    /// memory.
    fn delete_tokens_of(&mut self, w: WmeId) {
        // Taken out first: each deleted token looks for itself under `w`
        // and finds the key gone, so the list is not edited under the loop.
        let Some(toks) = self.beta.wme_tokens.take(w) else {
            return;
        };
        for &t in &toks {
            let node = self.beta.tokens[t as usize].node;
            let before = self.work.match_units;
            self.delete_token(t);
            self.charge_node(node, before);
        }
        give_list(&mut self.beta.pool, toks);
    }

    /// Creates a token at node `n` and, when it is active (positive, or
    /// negative with no blockers), propagates it down the trie.
    fn new_token(&mut self, n: u32, parent: u32, wme: Option<WmeId>) {
        let node = &self.net.nodes[n as usize];
        let id = self.alloc_token(n, parent, wme);
        self.work.match_units += cost::TOKEN_OP;
        let b = &mut *self.beta;
        if let Some(p) = &mut b.profile {
            p.tokens_created += 1;
            p.nodes[n as usize].tokens += 1;
        }
        touch(&mut b.mems, &mut b.touched, n).tokens.push(id);
        if let Some(w) = wme {
            b.wme_tokens.push(w, id, &mut b.pool);
        }
        if parent != DUMMY {
            b.tokens[parent as usize].children.push(id);
        }
        self.beta.load_chain(id);
        let chain_len = node.level as usize + 1;
        if self.indexed {
            self.register_token_indexes(id, n);
        }
        if node.negated {
            // Compute the initial blocker set, straight into the token.
            let tests = &node.join_tests[..];
            let cands = self.left_candidates(n, chain_len);
            self.work.match_units += (cands.len() * tests.len().max(1)) as u64 * cost::JOIN_TEST;
            let b = &mut *self.beta;
            let mut blockers = std::mem::take(&mut b.tokens[id as usize].neg_results);
            for &w in cands {
                if eval_tests(tests, &b.chain[..chain_len], w, self.wm) {
                    blockers.push(w);
                    touch(&mut b.mems, &mut b.touched, n)
                        .blocked_by
                        .push(w, id, &mut b.pool);
                }
            }
            let blocked = !blockers.is_empty();
            b.tokens[id as usize].neg_results = blockers;
            if blocked {
                return;
            }
        }
        self.propagate(n, id);
    }

    /// Registers a fresh token at `n`, whose chain is loaded, into the
    /// right-activation hash indexes that cover `n`'s resident population:
    /// `n`'s own index when `n` is negative, and the index of every
    /// positive keyed child — each entry with the token's fingerprint of
    /// that node's other equality keys. (A key whose ancestor is gone
    /// counts as 0: such a token fails the full tests against every WME,
    /// so no fingerprint can make a skip wrong.)
    fn register_token_indexes(&mut self, id: u32, n: u32) {
        let node = &self.net.nodes[n as usize];
        let chain_len = node.level as usize + 1;
        let nodes = &self.net.nodes;
        let own = node.negated.then_some(n);
        let positive_children = node
            .children
            .iter()
            .copied()
            .filter(|&c| !nodes[c as usize].negated);
        for nd in own.into_iter().chain(positive_children) {
            let keyed = &nodes[nd as usize];
            let Some(kt) = keyed.key_test else { continue };
            let b = &mut *self.beta;
            let chain = &b.chain[..chain_len];
            if let Some(key) = token_side_key(chain, &keyed.join_tests[kt], self.wm) {
                let keys = keyed.fingerprint_tests.iter();
                let fingerprint =
                    fingerprint(keys.map(|t| token_side_key(chain, t, self.wm).unwrap_or(0)));
                let entry = Entry {
                    token: id,
                    fingerprint,
                };
                touch(&mut b.mems, &mut b.touched, nd)
                    .right_index
                    .push(key, entry, &mut b.entries);
                b.tokens[id as usize]
                    .index_keys
                    .push((nd, fingerprint, key));
            }
        }
    }

    /// Token `t`, whose chain is loaded, is active at node `n`: emit its
    /// terminals and feed the children. (A shared node can be terminal for
    /// one production *and* a prefix of another's chain.)
    fn propagate(&mut self, n: u32, t: u32) {
        let node = &self.net.nodes[n as usize];
        let chain_len = node.level as usize + 1;
        if !node.terminals.is_empty() {
            self.emit_insert(n, t);
        }
        for &c in &node.children {
            let child = &self.net.nodes[c as usize];
            self.count_activation(c);
            if child.n_prods > 1 {
                self.beta.stats.shared_node_hits += 1;
            }
            if child.negated {
                self.new_token(c, t, None);
            } else {
                let tests = &child.join_tests[..];
                for &w in self.left_candidates(c, chain_len) {
                    self.work.match_units += tests.len() as u64 * cost::JOIN_TEST;
                    if eval_tests(tests, &self.beta.chain[..chain_len], w, self.wm) {
                        self.new_token(c, t, Some(w));
                    }
                }
            }
        }
    }

    /// Deletes the descendants of `t` (leaving `t`'s child list empty, with
    /// its capacity).
    fn delete_children(&mut self, t: u32) {
        // Each child looks for itself in this list to unlink; taken, it
        // finds nothing, and the list is emptied wholesale below.
        let mut children = std::mem::take(&mut self.beta.tokens[t as usize].children);
        for &ch in &children {
            self.delete_token(ch);
        }
        children.clear();
        self.beta.tokens[t as usize].children = children;
    }

    /// A negative token became blocked: delete its descendants and retract
    /// its instantiations if it reached a terminal.
    fn block_token(&mut self, t: u32) {
        self.delete_children(t);
        self.emit_retract(t);
    }

    fn delete_token(&mut self, t: u32) {
        if !self.beta.tokens[t as usize].alive {
            return;
        }
        let td = &mut self.beta.tokens[t as usize];
        td.alive = false;
        if std::mem::take(&mut td.base) {
            self.beta.mark_broken = true;
        }
        if let Some(p) = &mut self.beta.profile {
            p.tokens_deleted += 1;
        }
        self.delete_children(t);
        self.emit_retract(t);
        let b = &mut *self.beta;
        let td = &mut b.tokens[t as usize];
        let n = td.node as usize;
        // Removals here (and in every memory below) preserve arrival order:
        // a rollback pops the tokens made since the mark off the end of each
        // memory, and order-sensitive scans cost the match work pinned in
        // `spam/tests/work_pins.rs` only in that order.
        let toks = &mut b.mems[n].tokens;
        if let Some(pos) = toks.iter().position(|&x| x == t) {
            toks.remove(pos);
        }
        // Undo index and blocker registrations.
        for (nd, fingerprint, key) in td.index_keys.drain(..) {
            let entry = Entry {
                token: t,
                fingerprint,
            };
            b.mems[nd as usize]
                .right_index
                .remove_item(key, entry, &mut b.entries);
        }
        for w in td.neg_results.drain(..) {
            b.mems[n].blocked_by.remove_item(w, t, &mut b.pool);
        }
        if let Some(w) = td.wme {
            b.wme_tokens.remove_item(w, t, &mut b.pool);
        }
        let p = td.parent;
        if p != DUMMY && b.tokens[p as usize].alive {
            let pc = &mut b.tokens[p as usize].children;
            if let Some(pos) = pc.iter().position(|&x| x == t) {
                pc.remove(pos);
            }
        }
        self.work.match_units += cost::TOKEN_OP;
        b.slots.give(t);
    }

    /// Takes a token slot for node `n`. A reused slot keeps the capacity of
    /// its lists, which deletion (and [`Rete::reset`]) left empty.
    fn alloc_token(&mut self, n: u32, parent: u32, wme: Option<WmeId>) -> u32 {
        let b = &mut *self.beta;
        let id = b.slots.take();
        if id as usize == b.tokens.len() {
            b.tokens.push(TokenData::default());
        }
        let td = &mut b.tokens[id as usize];
        debug_assert!(td.children.is_empty() && td.neg_results.is_empty());
        debug_assert!(td.index_keys.is_empty() && td.emitted == Emission::None && !td.base);
        td.parent = parent;
        td.wme = wme;
        td.node = n;
        td.level = self.net.nodes[n as usize].level;
        td.alive = true;
        id
    }

    /// Token `t` satisfies the productions ending at node `n`: noted, and
    /// charged, now; its instantiations are built by the drain, if it is
    /// still satisfied then ([`Rete::drain_events_into`]).
    fn emit_insert(&mut self, n: u32, t: u32) {
        let terminals = self.net.nodes[n as usize].terminals.len() as u64;
        self.work.match_units += terminals * cost::CONFLICT_OP;
        let b = &mut *self.beta;
        b.stats.instantiations_emitted += terminals;
        b.tokens[t as usize].emitted = Emission::Pending(b.pending.len() as u32);
        b.pending.push(t);
    }

    /// Retracts what token `t` has in the conflict set, if anything, or
    /// cancels what it has on the way there; the charge is the same.
    ///
    /// A retraction is named `t`, as its insert was. Its key is rebuilt by
    /// walking `t`'s parent chain, not kept: the walk is sound because
    /// every path here runs before any slot of the chain is given back —
    /// [`delete_token`] deletes a token's descendants, which retracts them,
    /// before it gives its own slot back, and [`block_token`] retracts a
    /// live token — and a slot's `parent` and `wme` stay as they are until
    /// the slot is taken again.
    ///
    /// [`delete_token`]: Activation::delete_token
    /// [`block_token`]: Activation::block_token
    fn emit_retract(&mut self, t: u32) {
        let BetaState {
            tokens,
            pending,
            events,
            stats,
            ..
        } = &mut *self.beta;
        let td = &mut tokens[t as usize];
        let terminals = &self.net.nodes[td.node as usize].terminals;
        match std::mem::take(&mut td.emitted) {
            Emission::None => return,
            Emission::Pending(at) => {
                pending[at as usize] = DUMMY;
                stats.instantiations_netted += terminals.len() as u64;
            }
            Emission::Delivered => {
                stats.retractions_delivered += terminals.len() as u64;
                let chain = std::iter::successors(Some(t), |&c| {
                    let p = tokens[c as usize].parent;
                    (p != DUMMY).then_some(p)
                });
                events.push_retracts(t, terminals, chain.filter_map(|c| tokens[c as usize].wme));
            }
        }
        self.work.match_units += terminals.len() as u64 * cost::CONFLICT_OP;
    }
}

/// The token-side index key for `test`: the hash key of the value at
/// `(their_level, their_slot)` in the token's chain. `None` when the
/// referenced ancestor is unavailable (the full tests would reject every
/// candidate anyway).
fn token_side_key(chain: &[Option<WmeId>], test: &JoinTest, wm: &WmStore) -> Option<u64> {
    let their = chain.get(test.their_level as usize).copied().flatten()?;
    let wme = wm.get(their)?;
    Some(wme.get(test.their_slot as usize).hash_key())
}

/// The fingerprint of a sequence of hash keys: equal sequences, equal
/// fingerprints. Both sides of a node's other equality tests fold their
/// keys in test order, so — `ops_eq` implying equal keys — a candidate that
/// passes every test has the arriving WME's fingerprint.
fn fingerprint(keys: impl Iterator<Item = u64>) -> u32 {
    let mut h = MulHasher::default();
    keys.for_each(|k| h.write_u64(k));
    h.finish() as u32
}

fn eval_tests(tests: &[JoinTest], chain: &[Option<WmeId>], w: WmeId, wm: &WmStore) -> bool {
    let Some(wme) = wm.get(w) else { return false };
    for t in tests {
        let their = chain.get(t.their_level as usize).copied().flatten();
        let Some(their_wme) = their.and_then(|id| wm.get(id)) else {
            return false;
        };
        let left = wme.get(t.my_slot as usize);
        let right = their_wme.get(t.their_slot as usize);
        if !t.predicate.eval(&left, &right) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatchEvent;
    use crate::program::Program;
    use crate::rete::ReteConfig;
    use crate::symbol::sym;
    use crate::value::Value;
    use crate::wme::Wme;

    /// Test fixture: program + store + rete, with WMEs added through both.
    struct Fix {
        rete: Rete,
        wm: WmStore,
        tag: u64,
        program: Program,
    }

    impl Fix {
        fn new(src: &str) -> Fix {
            Self::with_config(src, ReteConfig::default())
        }

        fn with_config(src: &str, config: ReteConfig) -> Fix {
            let program = Program::parse(src).unwrap();
            let compiled = crate::Engine::compile(&program).unwrap();
            let net = Network::build(&compiled, &program, config);
            Fix {
                rete: Rete::instantiate(Arc::new(net)),
                wm: WmStore::new(),
                tag: 0,
                program,
            }
        }

        /// A WME in the store, not yet in the network.
        fn make(&mut self, class: &str, fields: &[(usize, Value)]) -> WmeId {
            self.tag += 1;
            let n = self.program.n_slots(sym(class)).unwrap();
            let mut w = Wme::new(sym(class), n, self.tag);
            for &(i, v) in fields {
                w.set(i, v);
            }
            self.wm.add(w)
        }

        fn add(&mut self, class: &str, fields: &[(usize, Value)]) -> WmeId {
            let id = self.make(class, fields);
            self.rete.add_wme(id, &self.wm);
            id
        }

        fn remove(&mut self, id: WmeId) {
            self.rete.remove_wme(id, &self.wm);
            self.wm.remove(id);
        }

        /// Net conflict-set size after applying all events.
        fn apply_events(&mut self, cs: &mut crate::conflict::ConflictSet) {
            cs.apply(&self.rete.drain_events(&self.wm));
        }
    }

    const TWO_CE: &str = "
        (literalize a x)
        (literalize b y)
        (p join (a ^x <v>) (b ^y <v>) --> (halt))
    ";

    #[test]
    fn join_on_shared_variable() {
        let mut f = Fix::new(TWO_CE);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("a", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0);
        f.add("b", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1);
        f.add("b", &[(0, Value::Int(2))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "non-matching b adds nothing");
        f.add("a", &[(0, Value::Int(2))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn removal_retracts_instantiations() {
        let mut f = Fix::new(TWO_CE);
        let mut cs = crate::conflict::ConflictSet::new();
        let a = f.add("a", &[(0, Value::Int(1))]);
        let _b = f.add("b", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1);
        f.remove(a);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0);
    }

    const NEGATED: &str = "
        (literalize goal status)
        (literalize blocker tag)
        (p fire-unless-blocked (goal ^status open) -(blocker) --> (halt))
    ";

    #[test]
    fn negation_blocks_and_unblocks() {
        let mut f = Fix::new(NEGATED);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("goal", &[(0, Value::symbol("open"))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "no blocker yet");

        let blk = f.add("blocker", &[]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0, "blocker retracts the instantiation");

        f.remove(blk);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "removing the blocker re-satisfies");
    }

    #[test]
    fn negation_with_join_variable() {
        let src = "
            (literalize region id)
            (literalize fragment region)
            (p unclaimed (region ^id <r>) -(fragment ^region <r>) --> (halt))
        ";
        let mut f = Fix::new(src);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("region", &[(0, Value::Int(1))]);
        f.add("region", &[(0, Value::Int(2))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 2);

        let fr = f.add("fragment", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "only region 1 is claimed");

        f.remove(fr);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn wme_matching_multiple_ces_of_same_production() {
        let src = "
            (literalize a x)
            (p pair (a ^x <v>) (a ^x <v>) --> (halt))
        ";
        let mut f = Fix::new(src);
        let mut cs = crate::conflict::ConflictSet::new();
        let w = f.add("a", &[(0, Value::Int(7))]);
        f.apply_events(&mut cs);
        // The single WME matches both CEs → one instantiation (w, w).
        assert_eq!(cs.len(), 1);
        f.remove(w);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0);
    }

    #[test]
    fn predicate_join_tests() {
        let src = "
            (literalize a x)
            (literalize b y)
            (p bigger (a ^x <v>) (b ^y > <v>) --> (halt))
        ";
        let mut f = Fix::new(src);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("a", &[(0, Value::Int(10))]);
        f.add("b", &[(0, Value::Int(5))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0);
        f.add("b", &[(0, Value::Int(15))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn alpha_memory_sharing_across_productions() {
        let src = "
            (literalize a x)
            (p p1 (a ^x 1) --> (halt))
            (p p2 (a ^x 1) --> (halt))
            (p p3 (a ^x 2) --> (halt))
        ";
        let f = Fix::new(src);
        // p1/p2 share one memory; p3 has its own.
        assert_eq!(f.rete.net.alpha_memories(), 2);
    }

    #[test]
    fn chunks_are_counted() {
        let mut f = Fix::new(TWO_CE);
        assert_eq!(f.rete.take_chunks(), 0);
        f.add("a", &[(0, Value::Int(1))]);
        assert!(f.rete.take_chunks() > 0);
        assert_eq!(f.rete.take_chunks(), 0, "take resets");
    }

    #[test]
    fn three_way_join_ordering_independent() {
        let src = "
            (literalize a x)
            (literalize b y)
            (literalize c z)
            (p tri (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
        ";
        // Add in all 6 orders; always exactly one instantiation.
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut f = Fix::new(src);
            let mut cs = crate::conflict::ConflictSet::new();
            for &which in &order {
                match which {
                    0 => f.add("a", &[(0, Value::Int(4))]),
                    1 => f.add("b", &[(0, Value::Int(4))]),
                    _ => f.add("c", &[(0, Value::Int(4))]),
                };
            }
            f.apply_events(&mut cs);
            assert_eq!(cs.len(), 1, "order {order:?}");
        }
    }

    // -- sharing & indexing ------------------------------------------------

    /// Three productions with a common 2-node prefix; p3 terminates *at*
    /// the shared prefix node.
    const SHARED_PREFIX: &str = "
        (literalize a x)
        (literalize b y)
        (literalize c z)
        (p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
        (p p2 (a ^x <v>) (b ^y <v>) (c ^z > <v>) --> (halt))
        (p p3 (a ^x <v>) (b ^y <v>) --> (halt))
    ";

    #[test]
    fn prefix_sharing_builds_a_trie() {
        let shared = Fix::new(SHARED_PREFIX);
        // Chains are 3+3+2 = 8 specs; the trie folds the (a)(b) prefix:
        // [a], [b], [c =], [c >].
        assert_eq!(shared.rete.net.beta_nodes(), 4);
        assert_eq!(shared.rete.net_stats().unshared_beta_nodes, 8);

        let unshared = Fix::with_config(SHARED_PREFIX, ReteConfig::unshared());
        assert_eq!(unshared.rete.net.beta_nodes(), 8);
        assert_eq!(unshared.rete.net_stats().unshared_beta_nodes, 8);
    }

    #[test]
    fn terminal_at_shared_interior_node_fires() {
        let mut f = Fix::new(SHARED_PREFIX);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("a", &[(0, Value::Int(1))]);
        f.add("b", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "p3 satisfied at the interior node");
        f.add("c", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 2, "p1 joins c = v");
        f.add("c", &[(0, Value::Int(5))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 3, "p2 joins c > v");
    }

    #[test]
    fn shared_nodes_and_index_probes_are_counted() {
        // Two (a, b) token pairs put the c-join's left memory above
        // INDEX_MIN_POPULATION, so adding `c` probes the token index
        // instead of scanning.
        let mut f = Fix::new(SHARED_PREFIX);
        f.add("a", &[(0, Value::Int(1))]);
        f.add("b", &[(0, Value::Int(1))]);
        f.add("a", &[(0, Value::Int(2))]);
        f.add("b", &[(0, Value::Int(2))]);
        f.add("c", &[(0, Value::Int(1))]);
        let stats = f.rete.net_stats();
        assert!(stats.shared_node_hits > 0, "prefix nodes serve 3 prods");
        assert!(stats.index_probes > 0, "equality joins probe the index");

        let mut u = Fix::with_config(SHARED_PREFIX, ReteConfig::unshared());
        u.add("a", &[(0, Value::Int(1))]);
        u.add("b", &[(0, Value::Int(1))]);
        u.add("a", &[(0, Value::Int(2))]);
        u.add("b", &[(0, Value::Int(2))]);
        u.add("c", &[(0, Value::Int(1))]);
        let ustats = u.rete.net_stats();
        assert_eq!(ustats.shared_node_hits, 0);
        assert_eq!(ustats.index_probes, 0);
        assert!(ustats.linear_scans > 0);
        assert_eq!(ustats.shared_test_hits, 0);
    }

    /// Canonical form of one operation's event batch: order within a batch
    /// is unspecified (trie traversal vs per-chain traversal), so compare
    /// as sorted multisets. The engine's conflict resolution is
    /// insertion-order independent, so firing sequences are unaffected.
    /// Names are left out: they are token slots, which the two networks
    /// hand out in their own orders.
    fn canon(events: MatchEvents) -> Vec<(u8, u32, Vec<WmeId>, Vec<u64>)> {
        let mut v: Vec<_> = (in_order(events).into_iter())
            .map(|(kind, _, production, wmes, tags)| (kind, production, wmes, tags))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn shared_and_unshared_agree_and_sharing_saves_work() {
        let src = "
            (literalize a x)
            (literalize b y)
            (literalize c z)
            (p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
            (p p2 (a ^x <v>) (b ^y <v>) -(c ^z <v>) --> (halt))
            (p p3 (a ^x <v>) (b ^y <v>) --> (halt))
            (p p4 (a ^x <v>) (c ^z > <v>) --> (halt))
        ";
        let mut s = Fix::new(src);
        let mut u = Fix::with_config(src, ReteConfig::unshared());

        let mut s_ids = Vec::new();
        let mut u_ids = Vec::new();
        let script: &[(usize, i64)] = &[
            (0, 1),
            (1, 1),
            (2, 1),
            (0, 2),
            (2, 0),
            (1, 2),
            (0, 1),
            (2, 1),
        ];
        for &(class, v) in script {
            let name = ["a", "b", "c"][class];
            s_ids.push(s.add(name, &[(0, Value::Int(v))]));
            u_ids.push(u.add(name, &[(0, Value::Int(v))]));
            assert_eq!(
                canon(s.rete.drain_events(&s.wm)),
                canon(u.rete.drain_events(&u.wm)),
                "add {name} {v}"
            );
        }
        // Remove in an order that exercises unblocking and subtree deletion.
        for i in [2, 0, 5, 7, 1, 3, 4, 6] {
            s.remove(s_ids[i]);
            u.remove(u_ids[i]);
            assert_eq!(
                canon(s.rete.drain_events(&s.wm)),
                canon(u.rete.drain_events(&u.wm)),
                "remove #{i}"
            );
        }
        assert!(
            s.rete.work.match_units <= u.rete.work.match_units,
            "sharing+indexing may not cost more work ({} vs {})",
            s.rete.work.match_units,
            u.rete.work.match_units
        );
    }

    #[test]
    fn reset_empties_every_memory_and_keeps_the_network() {
        // p2's negated (c) holds blocked tokens, the (b) and (c) joins are
        // indexed, and one `a` is removed again so the free list is in use.
        let src = "
            (literalize a x)
            (literalize b y)
            (literalize c z)
            (p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
            (p p2 (a ^x <v>) (b ^y <v>) -(c ^z <v>) --> (halt))
        ";
        let mut f = Fix::new(src);
        let fresh_stats = f.rete.net_stats();
        let (nodes, alpha_mems) = (f.rete.net.beta_nodes(), f.rete.net.alpha_memories());
        for v in [1, 2, 1] {
            f.add("a", &[(0, Value::Int(v))]);
            f.add("b", &[(0, Value::Int(v))]);
            f.add("c", &[(0, Value::Int(v))]);
        }
        let gone = f.add("a", &[(0, Value::Int(2))]);
        f.remove(gone);
        let b = &f.rete.beta;
        assert!(b.mems.iter().any(|m| !m.blocked_by.is_empty()));
        assert!(b.mems.iter().any(|m| !m.right_index.is_empty()));
        assert!(b.slots != SlotCursor::default() && !b.pending.is_empty());
        let slots = b.tokens.len();

        f.rete.reset();
        let b = &f.rete.beta;
        // Every memory, not just the ones reset was told about.
        for m in &b.mems {
            assert!(m.tokens.is_empty() && m.right_index.is_empty() && m.blocked_by.is_empty());
            assert!(!m.touched);
        }
        assert!(b.touched.is_empty());
        // Token slots stay, clean; none is handed out or listed free, so
        // the next token takes slot 0 as in a new network.
        assert!(b.tokens.iter().all(|t| {
            let lists_empty =
                t.children.is_empty() && t.neg_results.is_empty() && t.index_keys.is_empty();
            !t.alive && t.emitted == Emission::None && lists_empty
        }));
        assert_eq!(b.tokens.len(), slots);
        assert_eq!(b.slots, SlotCursor::default());
        assert!(b.wme_tokens.is_empty() && b.pending.is_empty() && b.events.is_empty());
        for m in 0..alpha_mems {
            assert!(f.rete.alpha.wmes(m as AlphaMemId).is_empty());
        }
        assert_eq!(f.rete.work, WorkCounters::default());
        assert_eq!(f.rete.take_chunks(), 0);
        assert_eq!(f.rete.net_stats(), fresh_stats);
        assert_eq!(
            (f.rete.net.beta_nodes(), f.rete.net.alpha_memories()),
            (nodes, alpha_mems)
        );
    }

    /// An event owned: kind (0 insert, 1 retract), name, production, WMEs,
    /// time tags.
    type Owned = (u8, u32, u32, Vec<WmeId>, Vec<u64>);

    /// One operation's events as they were emitted, in order, names
    /// included.
    fn in_order(events: MatchEvents) -> Vec<Owned> {
        events
            .iter()
            .map(|e| match e {
                MatchEvent::Insert { name, inst: i } => {
                    (0, name, i.production, i.wmes.to_vec(), i.time_tags.to_vec())
                }
                MatchEvent::Retract {
                    name,
                    production,
                    wmes,
                } => (1, name, production, wmes.to_vec(), Vec::new()),
            })
            .collect()
    }

    #[test]
    fn a_small_task_after_a_large_one_replays_like_a_new_network() {
        let src = "
            (literalize a x)
            (literalize b y)
            (literalize c z)
            (p p0 (a ^x 1) --> (halt))
            (p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
            (p p2 (a ^x <v>) (b ^y <v>) -(c ^z <v>) --> (halt))
        ";
        for config in [ReteConfig::shared(), ReteConfig::unshared()] {
            // The large task: hundreds of tokens, blockers, index buckets,
            // and removals that leave the free list in use.
            let mut f = Fix::with_config(src, config);
            let mut ids = Vec::new();
            for v in 0..100 {
                ids.push(f.add("a", &[(0, Value::Int(v % 7))]));
                ids.push(f.add("b", &[(0, Value::Int(v % 5))]));
                ids.push(f.add("c", &[(0, Value::Int(v % 3))]));
            }
            for id in ids.into_iter().step_by(4) {
                f.remove(id);
            }
            assert!(f.rete.beta.slots.high_water() > 100);
            f.rete.reset();
            f.wm = WmStore::new();
            f.tag = 0;

            // The one-WME task (then two more, so joins and the negation
            // run on recycled slots too), against a network built for it.
            let mut new = Fix::with_config(src, config);
            let steps = [("a", 1), ("b", 1), ("c", 1)];
            for (class, v) in steps {
                for fix in [&mut f, &mut new] {
                    fix.add(class, &[(0, Value::Int(v))]);
                }
                assert_eq!(
                    in_order(f.rete.drain_events(&f.wm)),
                    in_order(new.rete.drain_events(&new.wm)),
                    "{class} {v}"
                );
                assert_eq!(f.rete.work, new.rete.work);
                assert_eq!(f.rete.net_stats(), new.rete.net_stats());
                let token_ids = |fix: &Fix| -> Vec<Vec<u32>> {
                    let mems = &fix.rete.beta.mems;
                    mems.iter().map(|m| m.tokens.clone()).collect()
                };
                assert_eq!(token_ids(&f), token_ids(&new));
                assert_eq!(f.rete.beta.slots, new.rete.beta.slots);
            }
            assert_eq!(f.rete.take_chunks(), new.rete.take_chunks());
        }
    }

    #[test]
    fn a_rollback_leaves_every_memory_as_a_new_network_fed_the_base_has_it() {
        let src = "
            (literalize a x)
            (literalize b y)
            (literalize c z)
            (p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
            (p p2 (a ^x <v>) -(c ^z <v>) (b ^y <v>) --> (halt))
        ";
        for config in [ReteConfig::shared(), ReteConfig::unshared()] {
            // The base: tokens under both chains (blocked and not, none at a
            // terminal), indexed memories, and a freed slot on the cursor.
            let base = |f: &mut Fix| {
                for v in [1, 2, 3] {
                    f.add("a", &[(0, Value::Int(v))]);
                }
                f.add("c", &[(0, Value::Int(3))]);
                let gone = f.add("a", &[(0, Value::Int(4))]);
                f.remove(gone);
            };
            let mut f = Fix::with_config(src, config);
            let mut new = Fix::with_config(src, config);
            base(&mut f);
            base(&mut new);
            assert!(f.rete.mark(&f.wm));
            let (marked_wm, marked_tag) = (f.wm.next_id(), f.tag);

            // The task: blocks base tokens, hangs children on them, reaches
            // terminals, removes some of its own WMEs again.
            let mut ids = Vec::new();
            for v in 0..40 {
                ids.push(f.add("b", &[(0, Value::Int(v % 5))]));
                ids.push(f.add("c", &[(0, Value::Int(v % 4))]));
                ids.push(f.add("a", &[(0, Value::Int(v % 3))]));
            }
            for id in ids.into_iter().step_by(3) {
                f.remove(id);
            }
            assert!(!f.rete.beta.pending.is_empty());
            assert!(f.rete.rollback(), "only the task's own WMEs were removed");
            f.wm.truncate(marked_wm.0 as usize);
            f.tag = marked_tag;

            let b = &f.rete.beta;
            assert!(b.pending.is_empty() && b.events.is_empty() && b.touched.is_empty());
            assert_eq!(f.rete.work, new.rete.work);
            assert_eq!(f.rete.net_stats(), new.rete.net_stats());
            assert_eq!(b.slots, new.rete.beta.slots);
            for (n, (got, want)) in b.mems.iter().zip(&new.rete.beta.mems).enumerate() {
                assert_eq!(got.tokens, want.tokens, "node {n}");
                assert!(!got.touched);
            }
            let hw = b.slots.high_water();
            for (t, (got, want)) in b.tokens.iter().zip(&new.rete.beta.tokens[..hw]).enumerate() {
                assert_eq!(got.alive, want.alive, "token {t}");
                assert_eq!(got.children, want.children, "token {t}");
                assert_eq!(got.neg_results, want.neg_results, "token {t}");
                assert_eq!(got.index_keys, want.index_keys, "token {t}");
            }
            assert!(b.tokens[hw..]
                .iter()
                .all(|t| !t.alive && t.children.is_empty()));
            for m in 0..f.rete.net.alpha_memories() as AlphaMemId {
                assert_eq!(f.rete.alpha.wmes(m), new.rete.alpha.wmes(m));
            }
            // And it goes on like the new one, token ids included.
            for (class, v) in [("b", 1), ("c", 1), ("b", 3), ("a", 3)] {
                for fix in [&mut f, &mut new] {
                    fix.add(class, &[(0, Value::Int(v))]);
                }
                assert_eq!(
                    in_order(f.rete.drain_events(&f.wm)),
                    in_order(new.rete.drain_events(&new.wm)),
                    "{class} {v}"
                );
                assert_eq!(f.rete.work, new.rete.work);
                assert_eq!(f.rete.net_stats(), new.rete.net_stats());
                assert_eq!(f.rete.beta.slots, new.rete.beta.slots);
            }
            assert_eq!(f.rete.take_chunks(), new.rete.take_chunks());

            // Deleting a base token — here through its WME — breaks the mark;
            // a reset forgets it, base flags and all.
            f.remove(WmeId(0));
            assert!(!f.rete.rollback());
            f.rete.reset();
            assert!(f.rete.beta.tokens.iter().all(|t| !t.base && !t.alive));
            assert!(f.rete.mark.is_none() && !f.rete.rollback());
        }
    }

    /// Two phases under `control`: `seg` joins only rules of phases nobody
    /// is in. Its memory feeds `a1`/`a2`'s shared `(seg ^id <i>)` (level
    /// 1, population: the empty `(control ^phase a)` memory) and `b1`'s
    /// negated `(seg)` (population: its own empty memory).
    const PHASED: &str = "
        (literalize control phase)
        (literalize seg id)
        (literalize mark id)
        (p a1 (control ^phase a) (seg ^id <i>) --> (halt))
        (p a2 (control ^phase a) (seg ^id <i>) (mark ^id <i>) --> (halt))
        (p b1 (control ^phase b) -(seg) --> (halt))
    ";

    impl Fix {
        /// [`Rete::add_wme`] with every successor visited, null or not.
        fn add_visiting_every_successor(
            &mut self,
            class: &str,
            fields: &[(usize, Value)],
        ) -> WmeId {
            let id = self.make(class, fields);
            let r = &mut self.rete;
            r.beta.chunks += 1;
            let (wme, units) = (self.wm.get(id).unwrap(), &mut r.work.match_units);
            r.alpha
                .classify_add(&r.net.alpha, id, wme, units, &mut r.touched);
            let touched = std::mem::take(&mut r.touched);
            let mut act = r.activation(&self.wm);
            let net = act.net;
            for &m in &touched {
                for s in &net.alpha.mem(m).successors {
                    let before = act.work.match_units;
                    act.right_activate_add(s.node, id);
                    act.charge_node(s.node, before);
                }
            }
            id
        }
    }

    #[test]
    fn a_null_right_activation_is_charged_as_the_visit_it_replaces() {
        let mut null = Fix::new(PHASED);
        let mut visited = Fix::new(PHASED);
        null.rete.enable_profile();
        visited.rete.enable_profile();
        let w = null.add("seg", &[]);
        visited.add_visiting_every_successor("seg", &[]);

        // One chunk for the classification and one per successor; the
        // shared join is a shared-node hit; each scans an empty population.
        let stats = null.rete.net_stats();
        assert_eq!(null.rete.beta.chunks, 3);
        assert_eq!((stats.linear_scans, stats.index_probes), (2, 0));
        assert_eq!(stats.shared_node_hits, 1);
        assert_eq!(stats.null_right_activations, 2);
        assert_eq!(visited.rete.net_stats().null_right_activations, 0);
        assert_eq!(
            NetStats {
                null_right_activations: 0,
                ..stats
            },
            visited.rete.net_stats()
        );
        assert_eq!(null.rete.beta.chunks, visited.rete.beta.chunks);
        assert_eq!(null.rete.work, visited.rete.work);
        // The shared node's activation goes to its lowest production.
        let activations = |f: &mut Fix| -> Vec<u64> {
            let p = f.rete.take_profile().unwrap();
            p.productions.iter().map(|p| p.activations).collect()
        };
        assert_eq!(activations(&mut null), [1, 0, 1]);
        assert_eq!(activations(&mut visited), [1, 0, 1]);

        // Leaving, it blocked nothing under `b1`'s negation: one chunk more
        // than the classification's.
        null.remove(w);
        assert_eq!(null.rete.take_chunks(), 3 + 2);
        assert_eq!(null.rete.net_stats().null_right_activations, 3);
        assert_eq!(activations(&mut null), [0, 0, 1]);
    }

    #[test]
    fn a_population_an_earlier_successor_filled_is_paired_against() {
        // Both condition elements feed from one memory, the first one's node
        // first: the token it makes is the population the second's right
        // activation meets, in the same walk.
        let src = "
            (literalize a x)
            (p pair (a ^x <v>) (a ^x <v>) --> (halt))
        ";
        let mut null = Fix::new(src);
        let mut visited = Fix::new(src);
        null.add("a", &[(0, Value::Int(7))]);
        visited.add_visiting_every_successor("a", &[(0, Value::Int(7))]);
        assert_eq!(null.rete.net_stats().null_right_activations, 0);
        assert_eq!(null.rete.net_stats(), visited.rete.net_stats());
        assert_eq!(null.rete.work, visited.rete.work);
        assert_eq!(null.rete.take_chunks(), visited.rete.take_chunks());
    }

    /// A positive and a negated join on two equality keys, `^x` the one
    /// the right indexes key on and `^y` the one the fingerprint covers;
    /// the productions share the `(a ...)` node.
    const TWO_KEYS: &str = "
        (literalize a x y)
        (literalize b x y)
        (p both (a ^x <v> ^y <u>) (b ^x <v> ^y <u>) --> (halt))
        (p neither (a ^x <v> ^y <u>) -(b ^x <v> ^y <u>) --> (halt))
    ";

    impl Fix {
        /// `src` on a network whose nodes have no fingerprint tests: every
        /// candidate a probe retrieves is evaluated.
        fn evaluating_every_candidate(src: &str) -> Fix {
            let mut f = Fix::new(src);
            let compiled = crate::Engine::compile(&f.program).unwrap();
            let mut net = Network::build(&compiled, &f.program, ReteConfig::default());
            net.nodes
                .iter_mut()
                .for_each(|n| n.fingerprint_tests.clear());
            f.rete = Rete::instantiate(Arc::new(net));
            f
        }
    }

    #[test]
    fn a_fingerprint_skip_is_charged_as_the_evaluation_it_replaces() {
        let mut skipping = Fix::new(TWO_KEYS);
        let mut evaluating = Fix::evaluating_every_candidate(TWO_KEYS);
        skipping.rete.enable_profile();
        evaluating.rete.enable_profile();
        // Both see the same change; then everything but the skip count is
        // the same, and that counts each skipped candidate once.
        let mut step = |change: &dyn Fn(&mut Fix), skips: u64| {
            change(&mut skipping);
            change(&mut evaluating);
            let stats = skipping.rete.net_stats();
            assert_eq!(stats.fingerprint_skips, skips);
            let stats = NetStats {
                fingerprint_skips: 0,
                ..stats
            };
            assert_eq!(stats, evaluating.rete.net_stats());
            assert_eq!(skipping.rete.work, evaluating.rete.work);
            assert_eq!(skipping.rete.take_chunks(), evaluating.rete.take_chunks());
            assert_eq!(
                in_order(skipping.rete.drain_events(&skipping.wm)),
                in_order(evaluating.rete.drain_events(&evaluating.wm))
            );
        };
        let add = |class: &'static str, x: Value, y: Value| {
            move |f: &mut Fix| {
                f.add(class, &[(0, x), (1, y)]);
            }
        };
        // Three `a`s share `^x 1`: a `b` with `^x 1` retrieves all three at
        // the join and at the negation, and only an `a` with its `^y` can
        // pass there — two skips at each.
        for y in 1..=3 {
            step(&add("a", Value::Int(1), Value::Int(y)), 0);
        }
        step(&add("b", Value::Int(1), Value::Int(2)), 4);
        // `2.0` is `2`: a number's fingerprint is its value's, not its
        // representation's.
        step(&add("b", Value::Int(1), Value::Float(2.0)), 8);
        // `a (1 2)` leaves, and its entries leave both indexes with it.
        step(&|f: &mut Fix| f.remove(WmeId(1)), 8);
        step(&add("b", Value::Int(1), Value::Int(3)), 10);
        assert_eq!(skipping.rete.net_stats().index_probes, 6);

        // Per production, the same units.
        let units = |f: &mut Fix| -> Vec<u64> {
            let p = f.rete.take_profile().unwrap();
            p.productions.iter().map(|p| p.match_units).collect()
        };
        assert_eq!(units(&mut skipping), units(&mut evaluating));
    }

    #[test]
    fn self_blocking_token_is_consistent() {
        // A WME that matches both the positive and the negated CE of the
        // same production: the token created during the add sees the WME in
        // its initial blocker scan, and the subsequent right activation of
        // the negative node must not double-register the blocker.
        let src = "
            (literalize a x)
            (p self (a ^x <v>) -(a ^x <v>) --> (halt))
        ";
        for config in [ReteConfig::shared(), ReteConfig::unshared()] {
            let mut f = Fix::with_config(src, config);
            let mut cs = crate::conflict::ConflictSet::new();
            let w1 = f.add("a", &[(0, Value::Int(1))]);
            let w2 = f.add("a", &[(0, Value::Int(1))]);
            f.apply_events(&mut cs);
            assert_eq!(cs.len(), 0, "every token blocked by its own WME");
            f.remove(w2);
            f.apply_events(&mut cs);
            assert_eq!(cs.len(), 0, "w1's token still blocked by w1");
            f.remove(w1);
            f.apply_events(&mut cs);
            assert_eq!(cs.len(), 0);
        }
    }
}
