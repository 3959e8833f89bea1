//! The heap allocations of the sequential phases, counted and pinned.
//!
//! `run_rtf`, `run_lcc`, `run_fa` and `run_model` are the benchmark's `seq`
//! arm. This binary's own global allocator counts the allocations (and
//! reallocations) the calling thread makes inside them — over SF+DC+MOFF
//! (seed 0), LCC at Levels 4 and 3 and over DC at Level 1, the inputs of
//! `work_pins.rs` — so a change that brings a per-firing allocation back
//! shows as a moved number, not as a slower round somebody has to notice.
//!
//! Each phase is counted twice per scene on a thread of its own: *cold*, its
//! first call on the thread, which builds the thread's task process its
//! engine, and *warm*, a second call on the same inputs, on that engine.
//! What a warm call allocates is what a task leaves behind, not what a
//! firing costs: memories growing past what the engine's last run needed,
//! the harvested rows, the merged result. A firing of a warm engine
//! allocates nothing (`ops5/tests/alloc_budget.rs`). Scene generation and
//! the phases' inputs are made outside the count, and every phase runs
//! once on a throwaway thread first, so process-wide one-time set-up (the
//! interner, the resolved schema) is in neither.
//!
//! A kept engine must also not grow with the tasks it reruns: the live
//! heap a thread holds after its 3rd identical round and after its 30th
//! are pinned equal.

use spam::datasets::{dc, moff, sf, Dataset};
use spam::fa::{run_fa, FaResult};
use spam::lcc::{run_lcc, LccPhaseResult, Level};
use spam::model::run_model;
use spam::rtf::run_rtf;
use spam::rules::SpamProgram;
use spam::scene::Scene;
use spam::FragmentHypothesis;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread (the test harness's own
/// threads allocate too; they do not count here).
struct Counting;

fn count(allocated: usize, freed: usize) {
    // A thread being torn down has no counters left; nothing is measured
    // there.
    if allocated > 0 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|n| n.set(n.get() + allocated as i64 - freed as i64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only `const`-initialised
// thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.max(1), layout.size());
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// What one scene's phases take, made before anything is counted.
struct Inputs {
    scene: Arc<Scene>,
    rtf: Arc<Vec<FragmentHypothesis>>,
    lcc: LccPhaseResult,
    supported: Arc<Vec<FragmentHypothesis>>,
    fa: FaResult,
}

fn inputs(sp: &SpamProgram, dataset: &Dataset) -> Inputs {
    let scene = Arc::new(spam::generate_scene(&dataset.spec));
    let rtf = Arc::new(run_rtf(sp, &scene).fragments);
    let lcc = run_lcc(sp, &scene, &rtf, Level::L3);
    let supported = Arc::new(lcc.fragments.clone());
    let fa = run_fa(sp, &scene, &supported, &lcc.consistents);
    Inputs {
        scene,
        rtf,
        lcc,
        supported,
        fa,
    }
}

/// The allocations of `phase`'s first (cold) and second (warm) call on a
/// fresh thread, summed over `scenes`, after a throwaway call on another
/// thread; and what the last call returned, by `out`.
fn cold_and_warm<R>(
    scenes: &[Inputs],
    phase: impl Fn(&Inputs) -> R + Sync,
    out: impl Fn(&R) -> u64 + Sync,
) -> (u64, u64, u64) {
    std::thread::scope(|s| {
        s.spawn(|| drop(phase(&scenes[0]))).join().unwrap();
    });
    let (mut cold, mut warm, mut firings) = (0, 0, 0);
    for scene in scenes {
        let (c, w, f) = std::thread::scope(|s| {
            s.spawn(|| {
                let before = allocations();
                drop(phase(scene));
                let between = allocations();
                let r = phase(scene);
                let after = allocations();
                (between - before, after - between, out(&r))
            })
            .join()
            .unwrap()
        });
        (cold, warm, firings) = (cold + c, warm + w, firings + f);
    }
    (cold, warm, firings)
}

fn airports(sp: &SpamProgram) -> Vec<Inputs> {
    [sf(), dc(), moff()].iter().map(|d| inputs(sp, d)).collect()
}

#[test]
fn lcc_allocations_are_pinned() {
    let sp = &SpamProgram::build();
    let all = airports(sp);
    let lcc = |level| move |i: &Inputs| run_lcc(sp, &i.scene, &i.rtf, level);
    let firings = |r: &LccPhaseResult| r.firings;
    let l4 = cold_and_warm(&all, lcc(Level::L4), firings);
    assert_eq!(l4, (12_974, 4_228, 24_111));
    let l3 = cold_and_warm(&all, lcc(Level::L3), firings);
    assert_eq!(l3, (15_888, 11_746, 24_111));
    let l1 = cold_and_warm(&all[1..2], lcc(Level::L1), firings);
    assert_eq!(l1, (7_658, 7_471, 1_536));
}

#[test]
fn serial_phase_allocations_are_pinned() {
    let sp = &SpamProgram::build();
    let all = airports(sp);
    let rtf = cold_and_warm(&all, |i| run_rtf(sp, &i.scene), |r| r.firings);
    assert_eq!(rtf, (8_952, 133, 1_163));
    let fa = cold_and_warm(
        &all,
        |i| run_fa(sp, &i.scene, &i.supported, &i.lcc.consistents),
        |r| r.firings,
    );
    assert_eq!(fa, (6_646, 548, 318));
    let model = cold_and_warm(
        &all,
        |i| run_model(sp, &i.scene, &i.supported, &i.fa.areas, &i.fa.members),
        |r| r.firings,
    );
    assert_eq!(model, (1_773, 1_045, 49));
}

/// The live bytes a thread holds after each of its first `rounds`
/// sequential rounds over `scenes` (RTF, LCC at Level 3, FA, MODEL, each
/// round's results dropped), and what each round allocated.
fn rounds_on_one_thread(scenes: &[Inputs], rounds: usize) -> Vec<(i64, u64)> {
    let sp = &SpamProgram::build();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut after = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let before = allocations();
                for i in scenes {
                    let frags = Arc::new(run_rtf(sp, &i.scene).fragments);
                    let lcc = run_lcc(sp, &i.scene, &frags, Level::L3);
                    let supported = Arc::new(lcc.fragments);
                    let fa = run_fa(sp, &i.scene, &supported, &lcc.consistents);
                    run_model(sp, &i.scene, &supported, &fa.areas, &fa.members);
                }
                after.push((LIVE.with(Cell::get), allocations() - before));
            }
            after
        })
        .join()
        .unwrap()
    })
}

/// A thread's engine is kept for good, so what it retains must not grow
/// with the rounds it reruns: after the first round has grown it and the
/// second has settled it, the 3rd and the 30th identical `level3` round
/// leave the same live heap behind and allocate alike.
#[test]
fn a_kept_engine_does_not_grow_with_the_rounds_it_reruns() {
    let sp = SpamProgram::build();
    let all = airports(&sp);
    let after = rounds_on_one_thread(&all, 30);
    assert_eq!(after[29], after[2], "(live bytes, allocations)");
    assert_eq!(after[2].1, 23_062);
}
