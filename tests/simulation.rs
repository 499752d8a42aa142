//! End-to-end validation: routes synthesised by the algorithms are fed to
//! the protocol-level simulator, which must measure the latency the
//! analytic formulas claim.

use clockroute::prelude::*;
use clockroute_sim::{GalsLink, RegisterPipeline, RelayChain, StallPattern};

#[test]
fn rbp_latency_confirmed_by_pipeline_simulation() {
    let g = GridGraph::open(35, 35, Length::from_um(500.0));
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for period in [150.0, 300.0, 600.0] {
        let t = Time::from_ps(period);
        let sol = RbpSpec::new(&g, &tech, &lib)
            .source(Point::new(1, 1))
            .sink(Point::new(33, 30))
            .period(t)
            .solve()
            .expect("feasible");
        let pipe = RegisterPipeline::new(sol.register_count(), t);
        let run = pipe.simulate(20, StallPattern::None);
        assert_eq!(
            run.first_arrival,
            sol.latency(),
            "period {period}: simulated {} vs claimed {}",
            run.first_arrival,
            sol.latency()
        );
        // Relay-station realisation has the same latency, with flow
        // control on top.
        let chain = RelayChain::new(sol.register_count(), t);
        let crun = chain.simulate(20, StallPattern::None);
        assert_eq!(crun.first_arrival, sol.latency());
        assert!(!crun.overflowed);
    }
}

#[test]
fn gals_latency_confirmed_by_link_simulation() {
    let g = GridGraph::open(35, 35, Length::from_um(500.0));
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    for (ts, tt) in [
        (300.0, 300.0),
        (200.0, 300.0),
        (300.0, 200.0),
        (250.0, 420.0),
    ] {
        let sol = GalsSpec::new(&g, &tech, &lib)
            .source(Point::new(1, 1))
            .sink(Point::new(33, 30))
            .periods(Time::from_ps(ts), Time::from_ps(tt))
            .solve()
            .expect("feasible");
        let link = GalsLink::new(
            sol.regs_source_side(),
            sol.regs_sink_side(),
            sol.t_s(),
            sol.t_t(),
            4,
        );
        let run = link.simulate(50, StallPattern::None);
        assert_eq!(run.delivered, 50);
        assert!(!run.overflowed);
        // Clock phase misalignment can add at most one cycle per domain.
        let claimed = sol.latency().ps();
        let simulated = run.first_arrival.ps();
        assert!(
            simulated >= claimed - tt - 1e-6 && simulated <= claimed + ts + tt + 1e-6,
            "({ts},{tt}): simulated {simulated} vs claimed {claimed}"
        );
    }
}

#[test]
fn gals_link_survives_receiver_backpressure() {
    let g = GridGraph::open(30, 30, Length::from_um(500.0));
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    let sol = GalsSpec::new(&g, &tech, &lib)
        .source(Point::new(0, 0))
        .sink(Point::new(29, 29))
        .periods(Time::from_ps(200.0), Time::from_ps(350.0))
        .solve()
        .expect("feasible");
    let link = GalsLink::new(
        sol.regs_source_side(),
        sol.regs_sink_side(),
        sol.t_s(),
        sol.t_t(),
        4,
    );
    for stalls in [
        StallPattern::EveryKth(2),
        StallPattern::EveryKth(5),
        StallPattern::Burst { start: 4, len: 30 },
    ] {
        let run = link.simulate(150, stalls);
        assert_eq!(run.delivered, 150, "{stalls:?} lost tokens");
        assert!(!run.overflowed, "{stalls:?} overflowed a relay station");
    }
}

#[test]
fn throughput_tracks_the_slower_domain() {
    let g = GridGraph::open(30, 30, Length::from_um(500.0));
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    let sol = GalsSpec::new(&g, &tech, &lib)
        .source(Point::new(0, 0))
        .sink(Point::new(29, 29))
        .periods(Time::from_ps(250.0), Time::from_ps(500.0))
        .solve()
        .expect("feasible");
    let link = GalsLink::new(
        sol.regs_source_side(),
        sol.regs_sink_side(),
        sol.t_s(),
        sol.t_t(),
        4,
    );
    let run = link.simulate(400, StallPattern::None);
    let ideal = link.analytic_throughput_tokens_per_ns();
    assert!(
        (run.throughput_tokens_per_ns - ideal).abs() / ideal < 0.05,
        "throughput {} vs ideal {ideal}",
        run.throughput_tokens_per_ns
    );
    // The fast sender must have hit FIFO back-pressure.
    assert!(run.fifo_rejected_puts > 0);
}
