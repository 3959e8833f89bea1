//! Host normalisation: a frozen single-thread reference kernel timed
//! around every sample.
//!
//! The box this benchmark runs on is shared, and its speed drifts by 20%
//! between identical runs a few minutes apart. Every `*_ms_*` end-to-end
//! metric and `setup_s` is therefore `wall × CALIB_REF_MS / mean(kernel
//! before, kernel after)`: the time the sample would have taken on a host
//! on which the kernel takes exactly [`CALIB_REF_MS`].
//!
//! The kernel allocates, hashes and frees, because that is what the
//! product does between two `Instant`s: a pointer-chasing walk over an
//! L2-sized buffer moved 9% over runs in which the `seq` arm moved 22%,
//! this one moved 21% (README, "Normalisation"). Editing the kernel or the
//! constant moves every normalised number, so neither is ever edited.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What the kernel took on the host the benchmark was defined on.
pub const CALIB_REF_MS: f64 = 20.0;

/// Tables built and dropped per pass, and insertions per table.
const TABLES: u32 = 260;
const INSERTS: u32 = 600;
const KEYS: u64 = 97;

/// One pass: `TABLES` times, fill a hash map of growing vectors and a
/// vector of boxes from a xorshift stream, fold them, drop them.
fn pass() -> u64 {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u64;
    for _ in 0..TABLES {
        let mut by_key: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut boxes: Vec<Box<[u64; 6]>> = Vec::new();
        for _ in 0..INSERTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            by_key.entry(x % KEYS).or_default().push(x);
            boxes.push(Box::new([x; 6]));
        }
        for (k, v) in &by_key {
            acc = acc.wrapping_add(k + v.len() as u64);
        }
        for b in &boxes {
            acc = acc.wrapping_add(b[3]);
        }
    }
    acc
}

/// Milliseconds one pass of the kernel takes right now.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    black_box(pass());
    t.elapsed().as_secs_f64() * 1e3
}

/// `wall` as it would read on the reference host, given the kernel's
/// time immediately before and after the sample.
pub fn normalise(wall: f64, calib_before_ms: f64, calib_after_ms: f64) -> f64 {
    wall * CALIB_REF_MS / (0.5 * (calib_before_ms + calib_after_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_scales_by_the_mean_of_the_two_kernel_times() {
        // A host exactly at the reference leaves the sample alone.
        assert_eq!(normalise(400.0, CALIB_REF_MS, CALIB_REF_MS), 400.0);
        // A host twice as slow halves it.
        assert_eq!(
            normalise(400.0, 2.0 * CALIB_REF_MS, 2.0 * CALIB_REF_MS),
            200.0
        );
        // Before and after are averaged.
        let n = normalise(300.0, CALIB_REF_MS - 2.0, CALIB_REF_MS + 2.0);
        assert!((n - 300.0).abs() < 1e-9, "{n}");
    }

    #[test]
    fn kernel_is_deterministic_and_does_real_work() {
        assert_eq!(pass(), pass());
        assert_ne!(pass(), 0);
        assert!(kernel_ms() > 0.0);
    }
}
