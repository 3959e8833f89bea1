//! The Rete match network (Forgy 1982), as used by OPS5 and ParaOPS5.
//!
//! Rete trades memory for time: it stores partial matches (tokens) so that
//! each working-memory change touches only the affected parts of the network
//! instead of re-running the whole match. The paper's ParaOPS5 system
//! parallelises exactly these node activations; its ~100-instruction subtask
//! granularity corresponds to one activation here (we count them per cycle
//! as `match_chunks` for the match-parallelism cost model).
//!
//! Structure:
//!
//! * [`alpha`] — the constant-test network. Each distinct `(class, constant
//!   tests)` pattern gets one alpha memory, shared across productions.
//! * [`compile`] — turns parsed productions into linear join chains with
//!   variable-consistency tests resolved to `(level, slot)` references.
//! * [`network`] — the compiled network: the chains folded into a trie of
//!   join and negative nodes over the alpha network. Built once per program,
//!   immutable, shared by every engine.
//! * [`runtime`] — one engine's memories over the network: token arena,
//!   incremental addition/removal, and conflict-set event generation.

pub mod alpha;
pub mod compile;
pub mod network;
pub mod runtime;

pub use compile::{AlphaArg, AlphaTest, CompiledProduction, JoinTest, VarSource};
pub use network::{Network, ReteConfig};
pub use runtime::{MatchEvent, Rete};
