//! Quickstart: route a cross-chip net three ways.
//!
//! Builds a 10 mm × 10 mm die, then synthesises the same source→sink net
//! (1) unconstrained (fast path), (2) registered at a 300 ps clock (RBP)
//! and (3) across two clock domains through an MCFIFO (GALS), printing
//! the resulting routes as ASCII art.
//!
//! Run with: `cargo run --release --example quickstart`

use clockroute::prelude::*;
use clockroute_elmore::GateKind;
use clockroute_grid::{render_grid, RenderOptions};

fn labels(path: &RoutedPath, lib: &GateLibrary) -> Vec<(Point, char)> {
    let mut out = vec![(path.source(), 'S'), (path.sink(), 'T')];
    for (pt, gate) in path.gates() {
        if pt == path.source() || pt == path.sink() {
            continue;
        }
        out.push((
            pt,
            match lib.gate(gate).kind() {
                GateKind::Buffer => 'B',
                GateKind::Register | GateKind::Latch => 'R',
                GateKind::McFifo => 'F',
            },
        ));
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 10 mm die on a 20×20 grid (0.5 mm pitch) with one hard IP block.
    let mut fp = Floorplan::new(Length::from_mm(10.0), Length::from_mm(10.0));
    fp.add_block(
        Rect::new(Point::new(7, 4), Point::new(12, 14)),
        BlockKind::Hard,
    );
    let graph = GridGraph::from_floorplan(&fp, 20, 20);
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    let (s, t) = (Point::new(1, 9), Point::new(18, 10));

    // 1. Minimum-delay buffered path (fast path).
    let fast = FastPathSpec::new(&graph, &tech, &lib)
        .source(s)
        .sink(t)
        .solve()?;
    println!(
        "== fast path: delay {:.0}, {} buffers ==",
        fast.delay(),
        fast.buffer_count()
    );
    println!(
        "{}",
        render_grid(
            &graph,
            Some(&fast.path().grid_path()),
            &labels(fast.path(), &lib),
            &RenderOptions::default()
        )
    );

    // 2. Registered route at a 300 ps clock (RBP).
    let rbp = RbpSpec::new(&graph, &tech, &lib)
        .source(s)
        .sink(t)
        .period(Time::from_ps(300.0))
        .solve()?;
    println!(
        "== RBP @ 300 ps: latency {:.0} ({} cycles), {} registers, {} buffers ==",
        rbp.latency(),
        rbp.register_count() + 1,
        rbp.register_count(),
        rbp.buffer_count()
    );
    println!(
        "{}",
        render_grid(
            &graph,
            Some(&rbp.path().grid_path()),
            &labels(rbp.path(), &lib),
            &RenderOptions::default()
        )
    );

    // 3. Crossing into a 400 ps receiver domain (GALS).
    let gals = GalsSpec::new(&graph, &tech, &lib)
        .source(s)
        .sink(t)
        .periods(Time::from_ps(300.0), Time::from_ps(400.0))
        .solve()?;
    println!(
        "== GALS 300→400 ps: latency {:.0}, Reg-s {}, Reg-t {}, {} buffers ==",
        gals.latency(),
        gals.regs_source_side(),
        gals.regs_sink_side(),
        gals.buffer_count()
    );
    println!(
        "{}",
        render_grid(
            &graph,
            Some(&gals.path().grid_path()),
            &labels(gals.path(), &lib),
            &RenderOptions::default()
        )
    );
    println!("S source · T sink · B buffer · R register/relay · F MCFIFO · █ IP block");
    Ok(())
}
