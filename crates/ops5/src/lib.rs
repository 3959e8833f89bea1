//! # ops5
//!
//! A from-scratch implementation of the OPS5 production-system language and
//! runtime, including the Rete match network, built as the substrate for the
//! PPoPP 1990 paper *"The Effectiveness of Task-Level Parallelism for
//! High-Level Vision"* (Harvey, Kalp, Tambe, McKeown, Newell).
//!
//! The paper's SPAM vision system is an OPS5 program (600+ productions); the
//! parallel systems studied there — ParaOPS5 (match parallelism) and SPAM/PSM
//! (task-level parallelism) — are layered on an OPS5 engine exactly like the
//! one in this crate.
//!
//! ## What is implemented
//!
//! * **The language** ([`parser`]): `literalize` declarations, productions
//!   `(p name LHS --> RHS)` with positive and negated condition elements,
//!   variables `<x>`, predicate tests (`<> < <= > >= <=>`), disjunctions
//!   `<< a b >>`, and conjunctive `{ ... }` cells; RHS actions `make`,
//!   `remove`, `modify`, `bind`, `write`, `call`, `halt`, and arithmetic
//!   `(compute ...)` value expressions.
//! * **The match** ([`rete`]): Forgy's Rete algorithm — a shared alpha
//!   network of constant tests feeding alpha memories, a beta network of
//!   join and negative nodes with left/right memories, incremental token
//!   maintenance on WME addition and removal, and conflict-set maintenance.
//! * **Conflict resolution** ([`conflict`]): the LEX and MEA strategies with
//!   refraction, recency and specificity, per Forgy's OPS5 manual.
//! * **The interpreter** ([`engine`]): the recognize–act cycle, working
//!   memory with time tags, external-function calls (how SPAM runs its
//!   geometric computations from the RHS), halt handling, and run limits.
//! * **A naive matcher** ([`naive`]): a non-incremental matcher used both as
//!   a differential-testing oracle for the Rete and as the stand-in for the
//!   unoptimised Lisp OPS5 baseline that the paper reports a 10–20× port
//!   speedup over.
//! * **Profiling** ([`profile`]): match-level attribution, armed per
//!   engine by `enable_profile` — per-production match cost and firings,
//!   alpha memory heat, token and conflict-set statistics — feeding the
//!   speed-up-attribution report in the downstream crates.
//! * **Instrumentation** ([`instrument`]): deterministic work counters
//!   (match / RHS / external cost in abstract "work units") and per-cycle
//!   logs, from which the multiprocessor simulator derives task service
//!   times — this reproduces the paper's measurement methodology on
//!   hardware we do not have.
//!
//! ## Quick start
//!
//! ```
//! use ops5::{Engine, Program};
//!
//! let src = r#"
//! (literalize count n)
//! (p count-up
//!    (count ^n { <n> <= 3 })
//!    -->
//!    (modify 1 ^n (compute <n> + 1)))
//! "#;
//! let program = Program::parse(src).unwrap();
//! let mut engine = Engine::new(std::sync::Arc::new(program));
//! engine.make_wme("count", &[("n", 0i64.into())]).unwrap();
//! let outcome = engine.run(100);
//! assert_eq!(outcome.firings, 4); // n: 0 -> 1 -> 2 -> 3 -> 4
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
mod buckets;
pub mod conflict;
pub mod engine;
pub mod instrument;
pub mod lexer;
pub mod matcher;
pub mod naive;
pub mod parser;
pub mod printer;
pub mod profile;
pub mod program;
pub mod rete;
pub mod rhs;
pub mod snapshot;
pub mod symbol;
pub mod value;
pub mod wme;

pub use conflict::{ConflictSet, Strategy};
pub use engine::{Effects, Engine, ExternalFn, RunOutcome};
pub use instrument::{CycleStats, WorkCounters};
pub use profile::{AlphaMemProfile, MatchProfile, NetStats, ProductionProfile};
pub use program::Program;
pub use rete::{Network, ReteConfig};
pub use snapshot::EngineImage;
pub use symbol::{sym, sym_name, Symbol};
pub use value::Value;
pub use wme::{TimeTag, Wme, WmeId};

/// Crate-level error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexing / parsing failure, with a human-readable message.
    Parse(String),
    /// A semantic error detected at compile time (unknown class or
    /// attribute, unbound variable used in a test, etc.).
    Semantic(String),
    /// A runtime error (bad `modify` index, unknown external function, ...).
    Runtime(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Semantic(m) => write!(f, "semantic error: {m}"),
            Error::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, Error>;
