//! Latch-based routing with time borrowing (the extension of §I /
//! ref. [9] of the paper).
//!
//! Edge-triggered registers force *every* stage under `T_φ`; on dies
//! whose legal insertion sites are unevenly spaced (clock keep-outs,
//! macro farms), some hop may simply be longer than one cycle and the
//! route becomes unsynthesisable. Level-sensitive latches may *borrow*
//! through their transparency window: a long stage overshoots and the
//! short stage after it repays.
//!
//! The die below only allows insertion at columns 0, 6, 8, 14, 16, …
//! (alternating 3 mm and 1 mm hops at 0.5 mm pitch). The 3 mm hop costs
//! ≈ 208 ps, so at `T_φ = 200 ps` a registered route cannot exist —
//! but a latch with ≥ 10 ps of transparency rides straight through.
//!
//! Run with: `cargo run --release --example latch_borrowing`

use clockroute::core::latch::{validate_borrowing, LatchSpec};
use clockroute::core::RbpSpec;
use clockroute::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const COLS: u32 = 41;
    // Insertion sites: columns 0, 6, 8, 14, 16, 22, 24, 30, 32, 38, 40.
    let site = |x: u32| x == 0 || x == 40 || (x % 8 == 6) || x.is_multiple_of(8);
    let mut blk = BlockageMap::new(COLS, 3);
    for x in 0..COLS {
        if !site(x) {
            for y in 0..3 {
                blk.block_node(Point::new(x, y));
            }
        }
    }
    let graph = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    let (s, t) = (Point::new(0, 1), Point::new(40, 1));
    let period = Time::from_ps(200.0);

    println!("20 mm channel, insertion sites alternating 3 mm / 1 mm apart; T_φ = {period}\n");

    // Edge-triggered registers: the 3 mm hop cannot meet the period.
    match RbpSpec::new(&graph, &tech, &lib)
        .source(s)
        .sink(t)
        .period(period)
        .solve()
    {
        Ok(sol) => println!(
            "registers: {} registers (unexpected!)",
            sol.register_count()
        ),
        Err(e) => println!("registers: {e}"),
    }

    // Latches with increasing transparency windows.
    println!(
        "\n{:>12} {:>10} {:>10} {:>12} {:>11}",
        "borrow (ps)", "latches", "latency", "worst stage", "validated"
    );
    for borrow_ps in [0.0, 5.0, 10.0, 20.0, 40.0] {
        let spec = LatchSpec::new(&graph, &tech, &lib)
            .source(s)
            .sink(t)
            .period(period)
            .borrow_window(Time::from_ps(borrow_ps));
        match spec.solve() {
            Ok(sol) => {
                let report = sol.path().report(&graph, &tech, &lib);
                let stages: Vec<Time> = report.stage_delays().collect();
                let ok = validate_borrowing(&stages, period, Time::from_ps(borrow_ps));
                assert!(ok, "schedule violated the window constraints");
                println!(
                    "{:>12} {:>10} {:>7.0} ps {:>9.1} ps {:>11}",
                    borrow_ps,
                    sol.latch_count(),
                    sol.latency().ps(),
                    report.max_stage_delay().ps(),
                    if ok { "yes" } else { "NO" }
                );
            }
            Err(e) => println!("{borrow_ps:>12} infeasible: {e}"),
        }
    }
    println!("\nstages overshooting T_φ borrow from the short stage that follows and repay it");
    Ok(())
}
