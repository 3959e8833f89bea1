//! # multimax-sim
//!
//! A deterministic discrete-event simulator of an Encore-Multimax-class
//! shared-memory multiprocessor, with an optional network shared-virtual-
//! memory (SVM) extension coupling two machines — the experimental platform
//! of *"The Effectiveness of Task-Level Parallelism for High-Level Vision"*
//! (PPoPP 1990).
//!
//! ## Why a simulator
//!
//! The paper's speed-up curves (Figures 6–9, Table 9) are functions of the
//! task-service-time distribution, the central task queue's serialisation,
//! task-management overheads, and (for Figure 9) the remote-page-fault cost
//! of the CMU *netmemory* server. None of that hardware exists here (this
//! reproduction runs in a single-core container), so the simulator replays
//! *measured traces* — per-task service times produced by actually running
//! the SPAM tasks through the Rust OPS5 engine — at any processor count.
//! This mirrors the original methodology (§5.2): their control process also
//! only timed task execution; the physics being reproduced is queueing.
//!
//! ## Model
//!
//! * A [`Machine`] is one or two clusters ("Encores") of
//!   processors; the kernel reserves some per cluster (§7: "the MACH kernel
//!   and the shared virtual memory system tend to occupy 2 processors").
//! * Task processes pull [`Task`]s from a central queue guarded
//!   by a lock; dequeueing costs time and serialises (§6.2 measures this
//!   overhead at "less than 25 seconds ... less than .1 %").
//! * Workers on the remote cluster pay SVM costs per task
//!   ([`svm::SvmConfig`]): page faults at the measured 50 ms latency, with
//!   optional false-sharing amplification and the 64-byte sub-page shipping
//!   optimisation the netmemory designers added (§7).
//! * [`sim::simulate`] returns a full [`sim::SimResult`] (makespan, per-
//!   worker busy time, utilisation, queue-wait, tail statistics).
//!
//! Everything is deterministic: identical inputs give identical results.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod machine;
pub mod message_passing;
pub mod metrics;
pub mod schedule;
pub mod sim;
pub mod svm;
pub mod svm_sim;
pub mod task;
pub mod workload;

pub use machine::{ClusterConfig, Machine};
pub use message_passing::{
    mp_speedup_curve, simulate_mp, simulate_mp_with_faults, MpConfig, MpPolicy,
};
pub use metrics::{speedup_curve, LevelStats, SpeedupPoint};
pub use schedule::Schedule;
pub use sim::{simulate, simulate_with_faults, DeathEvent, SimConfig, SimResult, TaskExec};
pub use svm::SvmConfig;
pub use svm_sim::{
    simulate_svm, simulate_svm_with_faults, PageStats, SvmOverheads, SvmSimConfig, SvmSimResult,
};
pub use task::{Task, TaskId};
pub use tlp_fault::FaultPlan;
pub use workload::TaskSet;
