//! Cross-crate consistency: the incremental delay accounting inside the
//! searches must agree exactly with the ground-truth Elmore evaluator,
//! and the solution objects' derived quantities must be self-consistent.

use clockroute::core::TieBreak;
use clockroute::prelude::*;
use clockroute_geom::gen::FloorplanGenerator;

fn scenario(seed: u64, grid: u32) -> GridGraph {
    let fp = FloorplanGenerator::new(grid, grid)
        .blocks(5)
        .block_size(2, grid / 4)
        .keepout(Point::new(0, 0))
        .keepout(Point::new(grid - 1, grid - 1))
        .generate(seed);
    GridGraph::from_floorplan(&fp, grid, grid)
}

#[test]
fn fastpath_delay_equals_ground_truth() {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for seed in 0..6 {
        let g = scenario(seed, 24);
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(Point::new(0, 0))
            .sink(Point::new(23, 23))
            .solve()
            .expect("feasible");
        let report = sol.path().report(&g, &tech, &lib);
        assert!(
            (report.total_delay().ps() - sol.delay().ps()).abs() < 1e-6,
            "seed {seed}: search said {}, evaluator {}",
            sol.delay(),
            report.total_delay()
        );
    }
}

#[test]
fn rbp_stages_equal_ground_truth_and_fit_period() {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for seed in 0..6 {
        let g = scenario(seed, 24);
        for period in [200.0, 350.0, 700.0] {
            let t = Time::from_ps(period);
            let sol = RbpSpec::new(&g, &tech, &lib)
                .source(Point::new(0, 0))
                .sink(Point::new(23, 23))
                .period(t)
                .solve()
                .expect("feasible");
            let report = sol.path().report(&g, &tech, &lib);
            // Every stage within the period (exact arithmetic agreement).
            assert!(
                report.max_stage_delay().ps() <= period + 1e-9,
                "seed {seed} @{period}: stage {}",
                report.max_stage_delay()
            );
            // Stage count = registers + 1, latency formula holds.
            assert_eq!(report.stages.len(), sol.register_count() + 1);
            assert_eq!(sol.latency(), t * (sol.register_count() as f64 + 1.0));
            // Source/sink slack figures agree with the evaluator.
            let first = report.stages[0].delay;
            let last = report.stages[report.stages.len() - 1].delay;
            assert!((t - first - sol.source_slack()).abs().ps() < 1e-6);
            assert!((t - last - sol.sink_slack()).abs().ps() < 1e-6);
        }
    }
}

#[test]
fn gals_stages_equal_ground_truth_and_fit_domains() {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for seed in 0..6 {
        let g = scenario(seed, 24);
        let (ts, tt) = (Time::from_ps(260.0), Time::from_ps(380.0));
        let sol = GalsSpec::new(&g, &tech, &lib)
            .source(Point::new(0, 0))
            .sink(Point::new(23, 23))
            .periods(ts, tt)
            .solve()
            .expect("feasible");
        let report = sol.path().report(&g, &tech, &lib);
        assert!(
            report.is_feasible_gals(Time::from_ps(ts.ps() + 1e-9), Time::from_ps(tt.ps() + 1e-9))
        );
        assert_eq!(report.fifo_count, 1);
        let lat = report
            .latency_gals(Time::from_ps(ts.ps() + 1e-9), Time::from_ps(tt.ps() + 1e-9))
            .expect("feasible");
        assert!((lat.ps() - sol.latency().ps()).abs() < 1e-3, "seed {seed}");
        assert_eq!(report.registers_before_fifo(), sol.regs_source_side());
    }
}

#[test]
fn tiebreaks_and_wire_bound_share_the_optimum() {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for seed in 0..4 {
        let g = scenario(seed, 20);
        for period in [250.0, 500.0] {
            let t = Time::from_ps(period);
            let base = RbpSpec::new(&g, &tech, &lib)
                .source(Point::new(0, 0))
                .sink(Point::new(19, 19))
                .period(t);
            let first = base.clone().solve().unwrap();
            let slack = base
                .clone()
                .tie_break(TieBreak::MaxEndpointSlack)
                .solve()
                .unwrap();
            let nobound = base.clone().wire_bound(false).solve().unwrap();
            assert_eq!(first.latency(), slack.latency(), "seed {seed} @{period}");
            assert_eq!(first.latency(), nobound.latency());
        }
    }
}

#[test]
fn routes_respect_blockage_maps() {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for seed in 10..16 {
        let g = scenario(seed, 24);
        let sol = RbpSpec::new(&g, &tech, &lib)
            .source(Point::new(0, 0))
            .sink(Point::new(23, 23))
            .period(Time::from_ps(300.0))
            .solve()
            .expect("feasible");
        // Geometric validity: adjacency and no blocked edges.
        sol.path().grid_path().validate(&g).expect("valid route");
        // Label validity: every inserted gate on an insertable node.
        for (pt, gate) in sol.path().gates() {
            if pt == sol.path().source() || pt == sol.path().sink() {
                continue;
            }
            assert!(
                !g.blockage().is_node_blocked(pt),
                "seed {seed}: gate at {pt}"
            );
            if lib.gate(gate).kind().is_sequential() {
                assert!(!g.blockage().is_register_blocked(pt));
            }
        }
    }
}

#[test]
fn separations_reconstruct_path_length() {
    // The separation reports partition the path's edges.
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    let g = scenario(3, 24);
    let sol = RbpSpec::new(&g, &tech, &lib)
        .source(Point::new(0, 0))
        .sink(Point::new(23, 23))
        .period(Time::from_ps(250.0))
        .solve()
        .unwrap();
    let total: usize = sol.path().register_separations(&lib).iter().sum();
    assert_eq!(total, sol.path().edge_count());
    let total_rb: usize = sol.path().element_separations().iter().sum();
    assert_eq!(total_rb, sol.path().edge_count());
}
