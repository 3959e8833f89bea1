//! # spam
//!
//! A reproduction of SPAM — the rule-based aerial-image interpretation
//! system of McKeown, Harvey et al. (CMU Digital Mapping Lab) — as used in
//! *"The Effectiveness of Task-Level Parallelism for High-Level Vision"*
//! (PPoPP 1990).
//!
//! SPAM interprets an image *segmentation* (a set of polygonal regions) as
//! a collection of real-world airport objects, driving from local, low-level
//! interpretations to a global scene model through four phases (§2.2):
//!
//! 1. **RTF** (region-to-fragment): heuristic classification of regions
//!    into *fragment* hypotheses (runway, taxiway, terminal building, ...)
//!    from shape descriptors — [`rtf`];
//! 2. **LCC** (local-consistency check): constraint satisfaction — spatial
//!    constraints (*runways intersect taxiways*, *terminal buildings are
//!    adjacent to parking aprons*) accumulate support for mutually
//!    consistent hypotheses — [`lcc`];
//! 3. **FA** (functional area): aggregation of consistent fragments into
//!    functional areas (a runway FA, a terminal FA) — [`fa`];
//! 4. **MODEL**: selection of functional areas into a scene model — [`model`].
//!
//! All phase logic is written as genuine OPS5 productions ([`rules`]),
//! executed on the [`ops5`] engine; geometric computation runs as external
//! RHS functions ([`externals`]) over the [`spam_geometry`] substrate —
//! mirroring the original system, whose RHS forked geometry processes from
//! Lisp (later C calls). This split is what makes SPAM unusual among
//! production systems: only 30–50 % of its time is match, the rest is
//! task-related computation.
//!
//! Every task of every phase runs on a [`task::TaskProcess`] — the paper's
//! task process as a value that owns its engine. The engine only counts;
//! [`watch`] is how a task runner watches one from outside (one registry
//! publish per task) without the engine knowing.
//!
//! The three airport datasets of the paper (San Francisco International,
//! Washington National, NASA Ames Moffett Field) are not available; the
//! [`generate`] module synthesises airport scenes, and [`datasets`]
//! provides presets calibrated so the task structure (counts, granularity,
//! variance — Tables 5–8) lands in the published ranges.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod constraints;
pub mod datasets;
pub mod externals;
pub mod fa;
pub mod fragments;
pub mod generate;
pub mod lcc;
pub mod model;
pub mod phases;
pub mod rtf;
pub mod rules;
pub mod scene;
pub mod task;
pub mod topdown;
pub mod watch;

pub use constraints::{Constraint, Relation, CONSTRAINTS};
pub use datasets::{dc, moff, sf, Dataset};
pub use fragments::{FragmentHypothesis, FragmentKind};
pub use generate::{generate_scene, generate_suburb, AirportSpec, SuburbSpec};
pub use phases::{run_pipeline, run_pipeline_scene, PhaseStats, PipelineResult};
pub use scene::{Region, Scene, SceneDomain};
