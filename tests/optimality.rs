//! Optimality certification: the search algorithms must match the
//! exhaustive reference oracles on small instances.
//!
//! The oracles (`clockroute_core::reference`) enumerate every simple path
//! and every insertion assignment — they share no queue, pruning or
//! wave-front machinery with the algorithms under test, so agreement here
//! certifies the paper's optimality claims end-to-end.

use clockroute::core::reference;
use clockroute::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny_graphs() -> Vec<(String, GridGraph)> {
    let mut graphs = Vec::new();
    // Open grids at pitches that force different insertion behaviour.
    for (w, h, pitch) in [(4u32, 3u32, 800.0f64), (3, 3, 1500.0), (5, 2, 1000.0)] {
        graphs.push((
            format!("open {w}x{h} @{pitch}"),
            GridGraph::open(w, h, Length::from_um(pitch)),
        ));
    }
    // Blocked variants: random node/edge blockages, seeded.
    let mut rng = StdRng::seed_from_u64(7);
    for seed in 0..4 {
        let mut blk = BlockageMap::new(4, 3);
        for _ in 0..3 {
            let p = Point::new(rng.gen_range(1..3), rng.gen_range(0..3));
            blk.block_node(p);
        }
        // One random edge blockage that keeps the corners connected.
        let y = rng.gen_range(0..3);
        blk.block_edge(Point::new(1, y), Point::new(2, y));
        graphs.push((
            format!("blocked 4x3 #{seed}"),
            GridGraph::new(blk, Length::from_um(900.0), Length::from_um(900.0)),
        ));
    }
    graphs
}

#[test]
fn fastpath_matches_exhaustive_min_delay() {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for (name, g) in tiny_graphs() {
        let s = Point::new(0, 0);
        let t = Point::new(g.width() - 1, g.height() - 1);
        let max_edges = 12; // covers every simple path on these grids
        let oracle = reference::min_delay_exhaustive(&g, &tech, &lib, s, t, max_edges);
        let sol = FastPathSpec::new(&g, &tech, &lib).source(s).sink(t).solve();
        match (oracle, sol) {
            (Ok(best), Ok(sol)) => {
                assert!(
                    (sol.delay().ps() - best.ps()).abs() < 1e-6,
                    "{name}: fast path {} vs oracle {best}",
                    sol.delay()
                );
            }
            (Err(_), Err(_)) => {}
            (o, s2) => panic!("{name}: oracle {o:?} vs solver {s2:?} feasibility disagrees"),
        }
    }
}

#[test]
fn rbp_matches_exhaustive_min_registers() {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for (name, g) in tiny_graphs() {
        let s = Point::new(0, 0);
        let t = Point::new(g.width() - 1, g.height() - 1);
        for period in [90.0, 120.0, 200.0, 400.0] {
            let t_phi = Time::from_ps(period);
            let oracle = reference::min_registers_exhaustive(&g, &tech, &lib, s, t, t_phi, 12);
            let sol = RbpSpec::new(&g, &tech, &lib)
                .source(s)
                .sink(t)
                .period(t_phi)
                .solve();
            match (oracle, sol) {
                (Ok(best), Ok(sol)) => assert_eq!(
                    sol.register_count(),
                    best,
                    "{name} @{period}ps: RBP used {} registers, oracle says {best}",
                    sol.register_count()
                ),
                (Err(_), Err(_)) => {}
                (o, s2) => {
                    panic!("{name} @{period}ps: oracle {o:?} vs solver {s2:?} disagree")
                }
            }
        }
    }
}

#[test]
fn gals_matches_exhaustive_min_latency() {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for (name, g) in tiny_graphs() {
        let s = Point::new(0, 0);
        let t = Point::new(g.width() - 1, g.height() - 1);
        for (ts, tt) in [(150.0, 150.0), (120.0, 200.0), (250.0, 130.0)] {
            let (ts, tt) = (Time::from_ps(ts), Time::from_ps(tt));
            let oracle = reference::min_gals_latency_exhaustive(&g, &tech, &lib, s, t, ts, tt, 12);
            let sol = GalsSpec::new(&g, &tech, &lib)
                .source(s)
                .sink(t)
                .periods(ts, tt)
                .solve();
            match (oracle, sol) {
                (Ok(best), Ok(sol)) => assert!(
                    (sol.latency().ps() - best.ps()).abs() < 1e-6,
                    "{name} ({ts},{tt}): GALS latency {} vs oracle {best}",
                    sol.latency()
                ),
                (Err(_), Err(_)) => {}
                (o, s2) => {
                    panic!("{name} ({ts},{tt}): oracle {o:?} vs solver {s2:?} disagree")
                }
            }
        }
    }
}

#[test]
fn rbp_oracle_agreement_on_random_seeds() {
    // Wider randomised sweep on a slightly larger instance.
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..12 {
        let mut blk = BlockageMap::new(4, 4);
        for _ in 0..rng.gen_range(0..4) {
            blk.block_node(Point::new(rng.gen_range(0..4), rng.gen_range(1..3)));
        }
        let pitch = rng.gen_range(500.0..1500.0);
        let g = GridGraph::new(blk, Length::from_um(pitch), Length::from_um(pitch));
        let s = Point::new(0, 0);
        let t = Point::new(3, 3);
        let period = Time::from_ps(rng.gen_range(80.0..300.0));
        let oracle = reference::min_registers_exhaustive(&g, &tech, &lib, s, t, period, 15);
        let sol = RbpSpec::new(&g, &tech, &lib)
            .source(s)
            .sink(t)
            .period(period)
            .solve();
        match (oracle, sol) {
            (Ok(best), Ok(sol)) => assert_eq!(
                sol.register_count(),
                best,
                "trial {trial} (pitch {pitch:.0}, T {period}): mismatch"
            ),
            (Err(_), Err(_)) => {}
            (o, s2) => panic!("trial {trial}: {o:?} vs {s2:?}"),
        }
    }
}
