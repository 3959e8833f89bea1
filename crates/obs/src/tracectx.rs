//! The scene trace id: one scene submission's tag on the flight recorder's
//! events.
//!
//! The unit of work in the paper is the *scene*: one interpretation fans
//! out as task attempts across workers. A phase run under a [`TraceId`]
//! tags every event its workers and its control process record with a
//! `trace_id` argument ([`crate::ThreadSink::set_trace`]), so the Chrome
//! trace a run writes answers "where did **this** scene's time go?" by
//! filtering on it (`spamctl trace <id> --from F`). The id is derived
//! from the run seed and the scene label, never from wall time, so reruns
//! of one workload carry the same ids.

use std::fmt;

/// SplitMix64 finalizer — the same mix used by the fault plans, so trace
/// ids are deterministic, well-distributed functions of their inputs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mix_str(mut h: u64, s: &str) -> u64 {
    for b in s.bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// Identifies one scene submission. Deterministic: derived from the run
/// seed and the scene label, never from wall time, so the same workload
/// produces the same ids run over run (benchdiff-comparable).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives the trace id for `scene` under `seed`.
    pub fn derive(seed: u64, scene: &str) -> TraceId {
        TraceId(splitmix64(mix_str(splitmix64(seed), scene)))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(TraceId::derive(42, "dc"), TraceId::derive(42, "dc"));
        assert_ne!(TraceId::derive(42, "dc"), TraceId::derive(43, "dc"));
        assert_ne!(TraceId::derive(42, "dc"), TraceId::derive(42, "dc2"));
        assert_eq!(TraceId(0xab).to_string(), "00000000000000ab");
    }
}
