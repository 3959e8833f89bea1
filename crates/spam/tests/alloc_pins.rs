//! The heap allocations of the LCC phase, counted and pinned.
//!
//! `run_lcc` is the benchmark's `seq` arm. This binary's own global
//! allocator counts the allocations (and reallocations) the calling thread
//! makes inside it — over SF+DC+MOFF (seed 0) at Levels 4 and 3 and over DC
//! at Level 1, the inputs of `work_pins.rs` — so a change that brings a
//! per-firing allocation back shows as a moved number, not as a slower
//! round somebody has to notice.
//!
//! What is left is what a task leaves behind, not what a firing costs: the
//! task process's engine and its memories growing to the phase's busiest
//! task, the harvested rows, the merged result. A firing of a warm engine
//! allocates nothing (`ops5/tests/alloc_budget.rs`). Scene generation and
//! RTF run outside the count; each count is of a second `run_lcc` on the
//! same inputs, so process-wide one-time set-up (the interner, the
//! resolved schema) is not in it.

use spam::datasets::{dc, moff, sf, Dataset};
use spam::lcc::{run_lcc, Level};
use spam::rules::SpamProgram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread (the test harness's own
/// threads allocate too; they do not count here).
struct Counting;

fn count_one() {
    // A thread being torn down has no counter left; nothing is measured
    // there.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a `const`-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations of the LCC phase over `datasets` at `level`, and its firings.
fn lcc_allocations(datasets: &[Dataset], level: Level) -> (u64, u64) {
    let sp = SpamProgram::build();
    let (mut allocs, mut firings) = (0, 0);
    for dataset in datasets {
        let scene = Arc::new(spam::generate_scene(&dataset.spec));
        let frags = Arc::new(spam::rtf::run_rtf(&sp, &scene).fragments);
        run_lcc(&sp, &scene, &frags, level);
        let before = allocations();
        let phase = run_lcc(&sp, &scene, &frags, level);
        allocs += allocations() - before;
        firings += phase.firings;
        drop(phase);
    }
    (allocs, firings)
}

#[test]
fn lcc_allocations_are_pinned() {
    let all = [sf(), dc(), moff()];
    assert_eq!(lcc_allocations(&all, Level::L4), (17_033, 24_111));
    assert_eq!(lcc_allocations(&all, Level::L3), (19_853, 24_111));
    assert_eq!(lcc_allocations(&[dc()], Level::L1), (8_389, 1_536));
}
