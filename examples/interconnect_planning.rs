//! Interconnect planning: the architectural use-case from the paper's
//! introduction.
//!
//! During floorplanning, an architect needs *cycle-latency estimates* for
//! the global nets between IP blocks so that microarchitectural tradeoffs
//! (e.g. deeper FIFOs, credit counts, speculative wakeup) can hide the
//! communication latency. This example builds a seeded random SoC
//! floorplan, then plans every pairwise link between four IP port sites
//! at two candidate clock frequencies and prints the latency matrix an
//! RTL update would consume.
//!
//! Run with: `cargo run --release --example interconnect_planning`

use clockroute::prelude::*;
use clockroute_geom::gen::FloorplanGenerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const GRID: u32 = 60; // 25 mm die at ~0.42 mm pitch
    let ports = [
        ("cpu0", Point::new(3, 3)),
        ("l3", Point::new(56, 4)),
        ("ddr", Point::new(4, 55)),
        ("pcie", Point::new(55, 56)),
    ];

    // Seeded synthetic floorplan: 10 macro blocks, ports kept clear.
    let mut generator = FloorplanGenerator::new(GRID, GRID)
        .blocks(10)
        .block_size(5, 14)
        .keepout_margin(2);
    for (_, p) in &ports {
        generator = generator.keepout(*p);
    }
    let fp = generator.generate(2026);
    let graph = GridGraph::from_floorplan(&fp, GRID, GRID);
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();

    println!(
        "floorplan: {} blocks covering {} grid points on a {GRID}×{GRID} grid\n",
        fp.blocks().len(),
        fp.blocked_area()
    );

    for period_ps in [500.0, 250.0] {
        let period = Time::from_ps(period_ps);
        println!(
            "== clock period {period_ps} ps ({:.2} GHz) ==",
            1000.0 / period_ps
        );
        println!(
            "{:<6} {:<6} {:>7} {:>9} {:>9} {:>9} {:>10}",
            "from", "to", "cycles", "regs", "bufs", "wire(mm)", "slack(ps)"
        );
        for (i, &(from, s)) in ports.iter().enumerate() {
            for &(to, t) in ports.iter().skip(i + 1) {
                match RbpSpec::new(&graph, &tech, &lib)
                    .source(s)
                    .sink(t)
                    .period(period)
                    .tie_break(clockroute::core::TieBreak::MaxEndpointSlack)
                    .solve()
                {
                    Ok(sol) => println!(
                        "{:<6} {:<6} {:>7} {:>9} {:>9} {:>9.1} {:>10.0}",
                        from,
                        to,
                        sol.register_count() + 1,
                        sol.register_count(),
                        sol.buffer_count(),
                        sol.path().wirelength(&graph).mm(),
                        (sol.source_slack() + sol.sink_slack()).ps(),
                    ),
                    Err(e) => println!("{from:<6} {to:<6} unroutable: {e}"),
                }
            }
        }
        println!();
    }

    println!("(cycles = registers + 1; the RTL model adds that many pipeline stages per link)");
    Ok(())
}
