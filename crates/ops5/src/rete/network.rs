//! The compiled network: everything about a Rete that the build fixes.
//!
//! A [`Network`] is a program's join chains folded into a trie of beta
//! nodes (Doorenbos-style node sharing, when the [`ReteConfig`] shares)
//! over the alpha network's fixed half — constant tests, dispatch tables,
//! successor lists, declared index slots. Nothing in it changes once
//! [`Network::build`] returns, so one is built per program and shared, in
//! an `Arc`, by every engine that runs the program: the paper's task
//! processes are forked from one initialised OPS5 and share its compiled
//! network the same way (§5.1; ParaOPS5's network is code). What a run
//! changes — tokens, alpha memories, index buckets, counters — is a
//! [`Rete`](super::Rete), instantiated from the network as empty lists.

use super::alpha::{AlphaMemId, AlphaNetwork, Successor};
use super::compile::{ChainNodeSpec, CompiledProduction, JoinTest};
use crate::ast::Predicate;
use crate::program::Program;
use std::cell::Cell;

/// Build-time configuration of the network. There are two networks, so
/// there are two values: [`ReteConfig::shared`] (the default) and
/// [`ReteConfig::unshared`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReteConfig {
    shared: bool,
}

impl ReteConfig {
    /// The default production network: join-chain prefixes shared between
    /// productions, alpha constant tests memoised across memories, alpha
    /// and beta memories hash-indexed on equality-join slot values.
    pub fn shared() -> ReteConfig {
        ReteConfig { shared: true }
    }

    /// The seed-equivalent baseline: one private chain per production,
    /// linear scans, seed-identical work accounting.
    pub fn unshared() -> ReteConfig {
        ReteConfig { shared: false }
    }

    /// Whether chain prefixes and alpha constant tests are shared.
    pub fn share(self) -> bool {
        self.shared
    }

    /// Whether equality joins probe hash indexes instead of scanning.
    pub fn index(self) -> bool {
        self.shared
    }
}

impl Default for ReteConfig {
    fn default() -> Self {
        Self::shared()
    }
}

/// One beta node of the (possibly shared) network trie. Activations read it
/// through a shared borrow that outlives their `&mut` of the node's memory,
/// so none of it is ever copied.
#[derive(Clone, Debug)]
pub(super) struct BetaNode {
    pub(super) negated: bool,
    pub(super) level: u16,
    /// Parent node; `None` for level-0 roots.
    pub(super) parent: Option<u32>,
    pub(super) alpha_mem: AlphaMemId,
    pub(super) join_tests: Vec<JoinTest>,
    /// Index into `join_tests` of the equality test the hash indexes key
    /// on; `None` without an equality test or with indexing disabled.
    pub(super) key_test: Option<usize>,
    /// The node's equality tests other than `key_test`, in test order:
    /// what the fingerprint of a right-index entry covers. Empty without a
    /// key test, and then no candidate is skipped on a fingerprint.
    pub(super) fingerprint_tests: Vec<JoinTest>,
    pub(super) children: Vec<u32>,
    /// Productions whose chain ends here: `(production, specificity)`.
    pub(super) terminals: Vec<(u32, u32)>,
    /// Number of productions whose chain passes through this node.
    pub(super) n_prods: u32,
    /// Lowest production index through this node (profile attribution).
    pub(super) rep_prod: u32,
}

/// What deciding whether a right activation of one node can pair needs,
/// apart from the node: a dense table the null path reads instead of the
/// [`BetaNode`].
#[derive(Clone, Copy, Debug)]
pub(super) struct RightFacts {
    /// The node whose tokens a right activation pairs against: the node
    /// itself when negated, its parent when positive; `None` at a positive
    /// level-0 node, where every WME makes a token.
    pub(super) population: Option<u32>,
    /// The node serves two or more productions (`shared_node_hits`).
    pub(super) shared: bool,
}

thread_local! {
    /// See [`Network::built_on_this_thread`].
    static BUILT: Cell<u64> = const { Cell::new(0) };
}

/// The compiled network of one program under one [`ReteConfig`]: immutable,
/// shared by the engines that run it.
#[derive(Debug)]
pub struct Network {
    config: ReteConfig,
    pub(super) alpha: AlphaNetwork,
    pub(super) nodes: Vec<BetaNode>,
    /// Parallel to `nodes`.
    pub(super) right: Vec<RightFacts>,
    /// Per alpha memory, its negated successors in successor order: the
    /// nodes a WME leaving the memory right-activates.
    pub(super) negated_successors: Vec<Vec<u32>>,
    /// Level-0 nodes (children of the virtual root).
    roots: Vec<u32>,
    /// One past the highest production index compiled in.
    pub(super) n_productions: usize,
    /// How many productions were compiled in.
    productions: usize,
    /// The sum of their chain lengths: the beta nodes there would be were
    /// no prefix shared.
    chain_nodes: u32,
    /// The length of the longest chain.
    pub(super) depth: usize,
}

impl Network {
    /// Builds the network of `compiled` — `program`'s chains, or a subset
    /// of them (ParaOPS5's match processes each take one) — the one place a
    /// network is built: the trie walk, the alpha memories, their dispatch
    /// tables. Engines are [instantiated](super::Rete::instantiate) from
    /// the result.
    pub fn build(
        compiled: &[CompiledProduction],
        program: &Program,
        config: ReteConfig,
    ) -> Network {
        BUILT.with(|n| n.set(n.get() + 1));
        let mut net = Network {
            config,
            alpha: AlphaNetwork::with_sharing(config.share()),
            nodes: Vec::new(),
            right: Vec::new(),
            negated_successors: Vec::new(),
            roots: Vec::new(),
            n_productions: (compiled.iter())
                .map(|s| s.prod as usize + 1)
                .max()
                .unwrap_or(0),
            productions: compiled.len(),
            chain_nodes: 0,
            depth: 0,
        };
        for spec in compiled {
            let specificity = program.productions[spec.prod as usize].specificity;
            let mut parent: Option<u32> = None;
            for n in &spec.nodes {
                let id = net.get_or_build_node(parent, n, spec.prod);
                parent = Some(id);
            }
            let terminal = parent.expect("productions have at least one condition element");
            net.nodes[terminal as usize]
                .terminals
                .push((spec.prod, specificity));
        }
        net.alpha.build_dispatch();
        // Once every production is in: sharing raises `n_prods` after the
        // node's alpha memory has listed it.
        net.right = (net.nodes.iter().enumerate())
            .map(|(id, node)| RightFacts {
                population: if node.negated {
                    Some(id as u32)
                } else {
                    node.parent
                },
                shared: node.n_prods > 1,
            })
            .collect();
        net.negated_successors = (0..net.alpha.len() as AlphaMemId)
            .map(|m| {
                let successors = net.alpha.mem(m).successors.iter().map(|s| s.node);
                successors
                    .filter(|&n| net.nodes[n as usize].negated)
                    .collect()
            })
            .collect();
        net
    }

    /// Finds a shareable sibling matching `spec` under `parent`, or builds a
    /// new node there, registering it with the alpha network.
    fn get_or_build_node(&mut self, parent: Option<u32>, spec: &ChainNodeSpec, prod: u32) -> u32 {
        self.chain_nodes += 1;
        if self.config.share() {
            let siblings = match parent {
                Some(p) => &self.nodes[p as usize].children,
                None => &self.roots,
            };
            let found = siblings.iter().copied().find(|&c| {
                let node = &self.nodes[c as usize];
                let mem = self.alpha.mem(node.alpha_mem);
                node.negated == spec.negated
                    && mem.class == spec.class
                    && mem.tests == spec.alpha_tests
                    && node.join_tests == spec.join_tests
            });
            if let Some(c) = found {
                self.nodes[c as usize].n_prods += 1;
                // rep_prod stays the minimum: productions build in index
                // order, so the creator is already the lowest.
                return c;
            }
        }
        let id = self.nodes.len() as u32;
        let level = match parent {
            Some(p) => self.nodes[p as usize].level + 1,
            None => 0,
        };
        self.depth = self.depth.max(level as usize + 1);
        let key_test = if self.config.index() {
            spec.join_tests
                .iter()
                .position(|t| t.predicate == Predicate::Eq)
        } else {
            None
        };
        let fingerprint_tests = match key_test {
            Some(kt) => (spec.join_tests.iter().enumerate())
                .filter(|&(i, t)| i != kt && t.predicate == Predicate::Eq)
                .map(|(_, &t)| t)
                .collect(),
            None => Vec::new(),
        };
        self.nodes.push(BetaNode {
            negated: spec.negated,
            level,
            parent,
            alpha_mem: 0,
            join_tests: spec.join_tests.clone(),
            key_test,
            fingerprint_tests,
            children: Vec::new(),
            terminals: Vec::new(),
            n_prods: 1,
            rep_prod: prod,
        });
        let am = self
            .alpha
            .get_or_create(spec.class, &spec.alpha_tests, Successor { node: id });
        self.nodes[id as usize].alpha_mem = am;
        if let Some(kt) = key_test {
            self.alpha.ensure_index(am, spec.join_tests[kt].my_slot);
        }
        match parent {
            Some(p) => self.nodes[p as usize].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// The build configuration of this network.
    pub fn config(&self) -> ReteConfig {
        self.config
    }

    /// Number of productions compiled in.
    pub fn productions(&self) -> usize {
        self.productions
    }

    /// Number of alpha memories (shared constant-test patterns).
    pub fn alpha_memories(&self) -> usize {
        self.alpha.len()
    }

    /// Alpha memories of `class`, and the most of them one WME of the class
    /// visits (see [`AlphaNetwork::class_fanout`]).
    pub fn alpha_fanout(&self, class: crate::Symbol) -> Option<(usize, usize)> {
        self.alpha.class_fanout(class)
    }

    /// Number of beta nodes after prefix sharing.
    pub fn beta_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of beta nodes there would be with no prefix shared: the sum
    /// of the chain lengths.
    pub fn unshared_beta_nodes(&self) -> u32 {
        self.chain_nodes
    }

    /// How many networks the calling thread has built so far. A build is
    /// what instantiating an engine used to repeat; tests take the
    /// difference over a stretch of work to hold that it stays one per
    /// program (per thread, so tests running beside them do not count).
    pub fn built_on_this_thread() -> u64 {
        BUILT.with(Cell::get)
    }
}
