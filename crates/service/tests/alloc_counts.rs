//! Allocation counts as exact counters.
//!
//! A counting global allocator, installed in this test binary only,
//! counts every `alloc`, `alloc_zeroed` and `realloc` call on the
//! calling thread. Each test runs on its own thread, so the counts are
//! exact and do not depend on what other tests run beside it.
//!
//! The searches keep their memory on the thread between solves (a
//! reset scratch: step and candidate arenas, fronts in one slab, dial
//! queue; see DESIGN.md §15). These tests pin what that buys and what
//! it must not change:
//!
//! * a warm, repeated fast-path, RBP and GALS solve allocates exactly
//!   the pinned count;
//! * a `jobs(1)` flow run of a walled, benchmark-shaped batch allocates
//!   at most half of what it did before;
//! * a solve after another solve, after a budget error and after a
//!   failpoint panic returns the route and every `SearchStats` field of
//!   the same solve on a fresh thread;
//! * a `crserve` memo hit allocates no more than it did before.

#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use clockroute_cli::scenario;
use clockroute_core::failpoint::{self, FailAction};
use clockroute_core::json::json_string;
use clockroute_core::{FastPathSpec, GalsSpec, RbpSpec, SearchBudget};
use clockroute_elmore::{GateLibrary, Technology};
use clockroute_flow::{FlowConfig, PlannerFlowExt};
use clockroute_geom::gen::FloorplanGenerator;
use clockroute_geom::units::Time;
use clockroute_geom::Point;
use clockroute_grid::GridGraph;
use clockroute_plan::Planner;
use clockroute_service::{Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocation calls per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's allocations after its locals are torn down
    // go uncounted instead of failing.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f()` and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A 20×20 floorplan with hard blocks, as the consistency suite builds.
fn graph() -> GridGraph {
    let fp = FloorplanGenerator::new(20, 20)
        .blocks(5)
        .block_size(2, 5)
        .keepout(Point::new(0, 0))
        .keepout(Point::new(19, 19))
        .generate(3);
    GridGraph::from_floorplan(&fp, 20, 20)
}

/// Which exact search [`solve`] runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    FastPath,
    Rbp,
    Gals,
}

/// One solve, rendered as its debug text (the route, the objective and
/// every `SearchStats` field, or the error), with the allocations the
/// solve made; rendering is not counted.
fn solve(g: &GridGraph, kind: Kind, budget: SearchBudget) -> (String, u64) {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    let (s, t) = (Point::new(0, 0), Point::new(19, 19));
    fn debug<T: std::fmt::Debug>((out, allocations): (T, u64)) -> (String, u64) {
        (format!("{out:?}"), allocations)
    }
    match kind {
        Kind::FastPath => debug(counted(|| {
            FastPathSpec::new(g, &tech, &lib)
                .source(s)
                .sink(t)
                .budget(budget)
                .solve()
        })),
        Kind::Rbp => debug(counted(|| {
            RbpSpec::new(g, &tech, &lib)
                .source(s)
                .sink(t)
                .period(Time::from_ps(300.0))
                .budget(budget)
                .solve()
        })),
        Kind::Gals => debug(counted(|| {
            GalsSpec::new(g, &tech, &lib)
                .source(s)
                .sink(t)
                .periods(Time::from_ps(300.0), Time::from_ps(400.0))
                .budget(budget)
                .solve()
        })),
    }
}

/// Allocations of one warm solve of each kind on [`graph`]: the search
/// memory is reused, so what is left is the per-solve setup (the
/// search context, goal bounds and probe, RBP's waves) and the returned
/// route.
const WARM_SOLVE_ALLOCATIONS: [(Kind, u64); 3] =
    [(Kind::FastPath, 99), (Kind::Rbp, 248), (Kind::Gals, 134)];

#[test]
fn warm_solves_allocate_the_pinned_count() {
    let g = graph();
    let unlimited = SearchBudget::unlimited();
    for (kind, pinned) in WARM_SOLVE_ALLOCATIONS {
        let counts: Vec<u64> = (0..4).map(|_| solve(&g, kind, unlimited).1).collect();
        // The first solve builds the scratch and the second may still
        // grow a reused bucket; from the third on a solve is steady.
        assert_eq!(counts[2], counts[3], "{kind:?}: not steady: {counts:?}");
        assert!(counts[2] < counts[0], "{kind:?}: {counts:?}");
        assert_eq!(
            counts[2], pinned,
            "{kind:?}: warm solve allocations {counts:?}"
        );
    }
}

/// The solve's text on a thread that never searched.
fn on_fresh_thread(g: &GridGraph, kind: Kind) -> String {
    std::thread::scope(|s| {
        s.spawn(|| solve(g, kind, SearchBudget::unlimited()).0)
            .join()
            .expect("fresh solve")
    })
}

#[test]
fn a_reused_scratch_answers_like_a_fresh_thread() {
    let g = graph();
    for kind in [Kind::FastPath, Kind::Rbp, Kind::Gals] {
        let fresh = on_fresh_thread(&g, kind);
        let unlimited = SearchBudget::unlimited();

        // After a solve of every kind, this one included.
        for other in [Kind::Gals, Kind::Rbp, Kind::FastPath, kind] {
            solve(&g, other, unlimited);
        }
        assert_eq!(solve(&g, kind, unlimited).0, fresh, "{kind:?} after solves");

        // After a budget error part-way through a search.
        let (capped, _) = solve(&g, kind, unlimited.with_max_candidates(40));
        assert!(capped.contains("BudgetExceeded"), "{kind:?}: {capped}");
        let again = solve(&g, kind, unlimited).0;
        assert_eq!(again, fresh, "{kind:?} after a budget error");

        // After a panic that unwound a fast-path search at its first pop.
        failpoint::disarm_all();
        failpoint::arm("fastpath::pop", FailAction::Panic, 1);
        let panicked = std::panic::catch_unwind(|| solve(&g, Kind::FastPath, unlimited));
        failpoint::disarm_all();
        assert!(panicked.is_err(), "the failpoint did not fire");
        assert_eq!(
            solve(&g, kind, unlimited).0,
            fresh,
            "{kind:?} after a panic"
        );
    }
}

/// A walled-bottleneck batch of the `flow_congested` benchmark shape:
/// a 32×32 grid split by a two-column wall of hard blocks, crossed
/// through three capacity-1 gaps by 26 comb, reg and gals nets.
const WALLED: &str = "\
die 8mm 8mm\n\
grid 32 32\n\
tech paper\n\
reserve off\n\
block hard 18 0 19 4\n\
block hard 18 7 19 15\n\
block hard 18 18 19 23\n\
block hard 18 26 19 31\n\
capacity default 2\n\
capacity rect 17 5 20 6 1\n\
capacity rect 17 16 20 17 1\n\
capacity rect 17 24 20 25 1\n\
net comb name=c0n0 src=1,0 dst=31,9\n\
net reg name=c0n1 src=22,28 dst=1,1 period=381\n\
net comb name=c0n2 src=9,2 dst=27,19\n\
net gals name=c0n3 src=27,5 dst=14,4 ts=400 tt=426\n\
net reg name=c0n4 src=10,6 dst=28,30 period=264\n\
net comb name=c0n5 src=24,23 dst=9,6\n\
net reg name=c0n6 src=7,7 dst=31,15 period=440\n\
net comb name=c0n7 src=22,24 dst=9,9\n\
net gals name=c0n8 src=5,10 dst=25,27 ts=404 tt=427\n\
net reg name=c0n9 src=27,23 dst=7,12 period=283\n\
net comb name=c0n10 src=6,13 dst=29,11\n\
net reg name=c0n11 src=31,21 dst=1,15 period=429\n\
net comb name=c0n12 src=11,15 dst=30,21\n\
net gals name=c0n13 src=30,28 dst=3,17 ts=356 tt=379\n\
net reg name=c0n14 src=12,17 dst=24,6 period=344\n\
net comb name=c0n15 src=28,5 dst=12,19\n\
net reg name=c0n16 src=10,21 dst=30,8 period=361\n\
net comb name=c0n17 src=23,18 dst=4,22\n\
net gals name=c0n18 src=9,23 dst=26,16 ts=395 tt=362\n\
net reg name=c0n19 src=27,11 dst=7,25 period=283\n\
net comb name=c0n20 src=8,26 dst=27,15\n\
net reg name=c0n21 src=30,19 dst=9,26 period=399\n\
net comb name=c0n22 src=10,29 dst=22,4\n\
net gals name=c0n23 src=26,22 dst=13,30 ts=422 tt=383\n\
net reg name=c0n24 src=12,31 dst=28,31 period=272\n\
net reg name=c0tight src=2,9 dst=7,6 period=1\n\
";

/// Allocations of one `jobs(1)` flow run of [`WALLED`] before the
/// searches reused their memory, the oracle packed its heap keys and
/// rip-up kept its slot lists.
const WALLED_FLOW_ALLOCATIONS_BEFORE: u64 = 11_123;

#[test]
fn a_flow_run_allocates_at_most_half_of_what_it_did() {
    let sc = scenario::parse(WALLED).expect("parses");
    let (gw, gh) = sc.grid;
    let graph = GridGraph::from_floorplan(&sc.floorplan, gw, gh);
    let run = || {
        Planner::new(graph.clone(), sc.tech, GateLibrary::paper_library())
            .reserve_routes(sc.reserve)
            .jobs(1)
            .flow(&sc.nets, &sc.capacities, FlowConfig::default())
    };
    let (first, _) = counted(run);
    let (again, allocations) = counted(run);
    assert_eq!(again, first);
    assert!(
        allocations * 2 <= WALLED_FLOW_ALLOCATIONS_BEFORE,
        "{allocations} allocations, {WALLED_FLOW_ALLOCATIONS_BEFORE} before"
    );
}

/// Allocations of one memo hit before the searches reused their memory.
const MEMO_HIT_ALLOCATIONS_BEFORE: u64 = 10;

#[test]
fn a_memo_hit_allocates_no_more_than_before() {
    let text = "die 4mm 4mm\ngrid 12 12\ntech paper\n\
                net comb name=a src=0,0 dst=11,11\n\
                net reg name=b src=0,11 dst=11,0 period=400\n";
    let line = format!(
        "{{\"id\":\"h\",\"op\":\"route\",\"scenario\":{}}}",
        json_string(text)
    );
    let service = Service::new(ServiceConfig::default());
    let cold = service.handle_line(&line);
    let (hit, _) = counted(|| service.handle_line(&line));
    let (again, allocations) = counted(|| service.handle_line(&line));
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    assert_eq!(again, hit);
    assert_eq!(cold.replace("\"cold\"", "\"hit\""), hit);
    assert!(
        allocations <= MEMO_HIT_ALLOCATIONS_BEFORE,
        "{allocations} allocations, {MEMO_HIT_ALLOCATIONS_BEFORE} before"
    );
}
