//! The recognize–act cycle's allocation budget, counted by this binary's
//! own global allocator on an LCC-shaped program: modify-heavy, two negated
//! condition elements in one production, an external that makes a WME.
//!
//! A firing of a warm engine allocates nothing. A made WME's fields go into
//! a buffer a departed WME left in the store; an instantiation's lists are
//! written once into the engine's event batch and copied from there into a
//! conflict-set slot's buffers; the selected instantiation's WMEs into one
//! scratch list; no node's tests or children are copied, no candidate list,
//! event or scratch vector is made, and nothing is built for a match that a
//! `modify`'s remove made and its add unmade. Whatever buffers a run grew,
//! `reset()` keeps, so replays settle.
//!
//! And an engine's own budget: made from a network built earlier it is a
//! handful of empty lists, however large the network.

use ops5::{CycleStats, Engine, NetStats, Network, Program, ReteConfig, Value, WorkCounters};
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

/// Tasks open, check their items through an external that records each
/// result as a new WME, total the results up and close — LCC's
/// task → check → pair → support shape. `orphan` never fires (every task
/// has its `sum`), but each `total` modifies that `sum`: the remove
/// satisfies `orphan`, the add blocks it again, inside one RHS — LCC's
/// 14 139 netted instantiations in 47 961.
const SRC: &str = "
    (literalize control phase)
    (literalize task id status)
    (literalize item id task value status)
    (literalize result task item value counted)
    (literalize sum task total)
    (p open
       (control ^phase run)
       (task ^id <t> ^status pending)
       -->
       (modify 2 ^status open))
    (p check
       (control ^phase run)
       (task ^id <t> ^status open)
       (item ^id <i> ^task <t> ^value <v> ^status pending)
       -(result ^task <t> ^item <i>)
       -->
       (call record <t> <i> (compute <v> * 2))
       (modify 3 ^status done))
    (p total
       (control ^phase run)
       (result ^task <t> ^value <v> ^counted nil)
       (sum ^task <t> ^total <s>)
       -->
       (modify 2 ^counted yes)
       (modify 3 ^total (compute <s> + <v>)))
    (p close
       (control ^phase run)
       (task ^id <t> ^status open)
       -(item ^task <t> ^status pending)
       -(result ^task <t> ^counted nil)
       -->
       (modify 2 ^status done))
    (p orphan
       (control ^phase run)
       (task ^id <t> ^status open)
       -(sum ^task <t>)
       -->
       (modify 2 ^status done))";

const TASKS: i64 = 8;
const ITEMS: i64 = 12;

fn engine() -> Engine {
    let program = Arc::new(Program::parse(SRC).unwrap());
    let result = ops5::sym("result");
    let slots = ["task", "item", "value"].map(|a| program.slot_of(result, ops5::sym(a)).unwrap());
    let mut e = Engine::new(program);
    e.register_external(
        "record",
        Arc::new(move |args, eff| {
            eff.cost = 40;
            eff.make(result, &[0, 1, 2].map(|i| (slots[i], args[i])));
            None
        }),
    );
    e
}

/// What a replay shows, and what it allocated while loading and running.
struct Replay {
    firings: u64,
    work: WorkCounters,
    net: NetStats,
    log: Vec<CycleStats>,
    load_allocations: u64,
    run_allocations: u64,
}

fn replay(e: &mut Engine) -> Replay {
    e.enable_cycle_log();
    let pending = Value::symbol("pending");
    let start = allocations();
    e.make_wme("control", &[("phase", Value::symbol("run"))])
        .unwrap();
    for t in 0..TASKS {
        e.make_wme("task", &[("id", t.into()), ("status", pending)])
            .unwrap();
        e.make_wme("sum", &[("task", t.into()), ("total", 0.into())])
            .unwrap();
        for i in 0..ITEMS {
            let sets = [
                ("id", i.into()),
                ("task", t.into()),
                ("value", (t + i).into()),
                ("status", pending),
            ];
            e.make_wme("item", &sets).unwrap();
        }
    }
    let loaded = allocations();
    let out = e.run(10_000);
    let ran = allocations();
    assert!(out.quiescent(), "{out:?}");
    Replay {
        firings: out.firings,
        work: e.work(),
        net: e.net_stats(),
        log: e.take_cycle_log(),
        load_allocations: loaded - start,
        run_allocations: ran - loaded,
    }
}

#[test]
fn a_firing_allocates_only_what_it_leaves_behind() {
    let mut e = engine();
    let warm_up = replay(&mut e);
    // open + close per task, check + total per item.
    assert_eq!(warm_up.firings as i64, 2 * TASKS + 2 * TASKS * ITEMS);

    e.reset();
    let second = replay(&mut e);
    e.reset();
    let third = replay(&mut e);

    // (a) Per firing, exactly: 24 allocations over 208 firings, 0.12 per
    // firing, none of them a firing's own. Eight are the cycle log's
    // doublings (the log is taken, so every replay grows a new one); the
    // rest are spare token lists growing to the snapshots they are lent
    // for (4 in the third replay). Two lists per surviving instantiation
    // and a new `fields` box per made WME would make it 511 (2.3 more per
    // firing), one copied test list per node activation 1.8 more, building
    // `orphan`'s instantiation at every `total` 0.9 more. Loading is the
    // same cycle without the RHS and allocates nothing.
    assert_eq!(second.net.instantiations_netted as i64, TASKS * ITEMS);
    let per_firing = second.run_allocations as f64 / second.firings as f64;
    assert_eq!(
        (second.load_allocations, second.run_allocations),
        (0, 24),
        "{per_firing:.2} per firing"
    );

    // (b) Retained capacity reaches a fixed point: a replay never needs
    // more than the one before it.
    let total = |r: &Replay| r.load_allocations + r.run_allocations;
    assert!(total(&second) <= total(&warm_up));
    assert!(
        total(&third) <= total(&second),
        "third replay allocated {}, second {}",
        total(&third),
        total(&second)
    );

    // (c) None of which a run can see.
    let fresh = replay(&mut engine());
    for (name, r) in [
        ("warm-up", &warm_up),
        ("second", &second),
        ("third", &third),
    ] {
        assert_eq!(r.firings, fresh.firings, "{name}");
        assert_eq!(r.work, fresh.work, "{name}");
        assert_eq!(r.net, fresh.net, "{name}");
        assert_eq!(r.log, fresh.log, "{name}");
    }
}

/// `make_wme` resolves attribute names into the engine's `sets` scratch
/// buffer; a name that does not resolve must leave the buffer with the
/// engine, not drop it on the error path.
#[test]
fn a_failed_make_wme_keeps_the_scratch_buffer() {
    let mut e = engine();
    replay(&mut e);
    e.reset();
    let item = |id: i64| [("id", id.into()), ("task", 0.into()), ("value", 1.into())];
    let good = |e: &mut Engine, id: i64| {
        let before = allocations();
        e.make_wme("item", &item(id)).unwrap();
        allocations() - before
    };
    let settled = good(&mut e, 0);
    let err = e
        .make_wme("item", &[("id", 1.into()), ("no-such-attribute", 1.into())])
        .unwrap_err();
    assert!(err.to_string().contains("no-such-attribute"), "{err}");
    assert_eq!(good(&mut e, 1), settled, "the buffer was re-grown");
}

/// An engine is its memories. Instantiating one on a built network costs
/// the same few allocations whatever the program — the matcher's box, one
/// list of alpha memories, one of their indexes, the test memo, one list of
/// node memories, the chain buffer — and builds no network: no node, test
/// list, successor list or dispatch table is made per engine (SPAM's build
/// is ≈ 550 allocations, and a sequential round used to repeat it twelve
/// times). Dropping it gives back what a run grew and leaves the network
/// to its other owners.
#[test]
fn instantiating_an_engine_allocates_its_memories_and_builds_no_network() {
    let program = Arc::new(Program::parse(SRC).unwrap());
    let compiled = Engine::compile(&program).unwrap();
    // Without indexes (and with no test shared) two of the lists are empty.
    for (config, budget) in [(ReteConfig::shared(), 6), (ReteConfig::unshared(), 5)] {
        let start = allocations();
        let network = Arc::new(Network::build(&compiled, &program, config));
        let build = allocations() - start;
        let built = Network::built_on_this_thread();

        let (p, c) = (Arc::clone(&program), Arc::clone(&compiled));
        let start = allocations();
        let e = Engine::with_network(p, c, Arc::clone(&network));
        let made = allocations() - start;
        assert_eq!(
            Arc::strong_count(&network),
            2,
            "the engine holds the network it was given"
        );
        drop(e);
        assert_eq!(allocations() - start, made, "a drop allocates nothing");
        assert_eq!(Arc::strong_count(&network), 1);
        assert_eq!(Network::built_on_this_thread(), built, "and none was built");
        assert_eq!(made, budget, "{config:?}: a build is {build}");
        assert!(build > 5 * made, "{config:?}: a build is {build}");
    }
}
