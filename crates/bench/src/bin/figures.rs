//! Regenerates the paper's illustrative figures as ASCII art (E4/E5):
//!
//! * **Fig. 2** — a registered s–t path and its latency arithmetic;
//! * **Fig. 3** — a buffered-register route on a grid with circuit and
//!   wire blockages;
//! * **Fig. 6** — RBP wave-front expansion rings on an open grid;
//! * **Fig. 10/11** — a two-domain MCFIFO route.
//!
//! Usage: `cargo run --release -p clockroute-bench --bin figures`

use clockroute_core::{GalsSpec, RbpSpec};
use clockroute_elmore::{GateKind, GateLibrary, Technology};
use clockroute_geom::units::{Length, Time};
use clockroute_geom::{BlockageMap, Point, Rect};
use clockroute_grid::{render_grid, GridGraph, RenderOptions};

fn p(x: u32, y: u32) -> Point {
    Point::new(x, y)
}

fn gate_labels(
    sol_path: &clockroute_core::RoutedPath,
    lib: &GateLibrary,
    s: Point,
    t: Point,
) -> Vec<(Point, char)> {
    let mut labels = vec![(s, 'S'), (t, 'T')];
    for (pt, gate) in sol_path.gates() {
        if pt == s || pt == t {
            continue;
        }
        let c = match lib.gate(gate).kind() {
            GateKind::Buffer => 'B',
            GateKind::Register | GateKind::Latch => 'R',
            GateKind::McFifo => 'F',
        };
        labels.push((pt, c));
    }
    labels
}

fn main() {
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();

    // ------------------------------------------------------------------
    println!("## Fig. 2 — latency of a registered path\n");
    let g = GridGraph::open(33, 3, Length::from_um(1000.0));
    let sol = RbpSpec::new(&g, &tech, &lib)
        .source(p(0, 1))
        .sink(p(32, 1))
        .period(Time::from_ps(700.0))
        .solve()
        .expect("feasible");
    let regs = sol.register_count();
    println!(
        "s ──{}── t   with {} registers at T_φ = 700 ps",
        "[R]──".repeat(regs),
        regs
    );
    println!(
        "latency = T_φ × (p + 1) = 700 × {} = {} ps\n",
        regs + 1,
        sol.latency().ps()
    );

    // ------------------------------------------------------------------
    println!("## Fig. 3 — routing with circuit and wire blockages\n");
    let mut blk = BlockageMap::new(24, 16);
    blk.block_nodes(&Rect::new(p(5, 3), p(9, 9))); // circuit blockage
    blk.block_edges(&Rect::new(p(13, 6), p(18, 12))); // wire blockage
    blk.block_nodes(&Rect::new(p(13, 6), p(18, 12)));
    let g = GridGraph::new(blk, Length::from_um(1500.0), Length::from_um(1500.0));
    let s = p(1, 7);
    let t = p(22, 8);
    let sol = RbpSpec::new(&g, &tech, &lib)
        .source(s)
        .sink(t)
        .period(Time::from_ps(350.0))
        .solve()
        .expect("feasible around blockages");
    let labels = gate_labels(sol.path(), &lib, s, t);
    println!(
        "{}",
        render_grid(
            &g,
            Some(&sol.path().grid_path()),
            &labels,
            &RenderOptions::default()
        )
    );
    println!("S = source, T = sink, R = register, B = buffer, █ = blocked node, ┆ = wire blockage");
    println!(
        "registers = {}, buffers = {}, latency = {} ps\n",
        sol.register_count(),
        sol.buffer_count(),
        sol.latency().ps()
    );

    // ------------------------------------------------------------------
    println!("## Fig. 6 — wave-front expansion (register rings)\n");
    let g = GridGraph::open(41, 41, Length::from_um(625.0));
    let s = p(1, 20);
    let t = p(39, 20);
    let (sol, trace) = RbpSpec::new(&g, &tech, &lib)
        .source(s)
        .sink(t)
        .period(Time::from_ps(300.0))
        .solve_traced()
        .expect("feasible");
    let mut labels = vec![(s, 'S'), (t, 'T')];
    for (w, ring) in trace.register_rings.iter().enumerate() {
        let c = char::from_digit((w as u32 + 1) % 10, 10).unwrap_or('9');
        for &pt in ring {
            labels.push((pt, c));
        }
    }
    println!(
        "{}",
        render_grid(&g, None, &labels, &RenderOptions::default())
    );
    println!("digits mark the wave in which RBP first registered each node (T = sink, S = source)");
    println!(
        "solution: {} registers, {} waves\n",
        sol.register_count(),
        sol.stats().waves
    );

    // ------------------------------------------------------------------
    println!("## Fig. 10/11 — multiple-clock-domain route with MCFIFO\n");
    let mut blk = BlockageMap::new(24, 16);
    blk.block_nodes(&Rect::new(p(8, 0), p(12, 10)));
    blk.block_edges(&Rect::new(p(8, 0), p(12, 10)));
    let g = GridGraph::new(blk, Length::from_um(1500.0), Length::from_um(1500.0));
    let s = p(1, 2);
    let t = p(22, 13);
    let sol = GalsSpec::new(&g, &tech, &lib)
        .source(s)
        .sink(t)
        .periods(Time::from_ps(300.0), Time::from_ps(400.0))
        .solve()
        .expect("feasible");
    let labels = gate_labels(sol.path(), &lib, s, t);
    println!(
        "{}",
        render_grid(
            &g,
            Some(&sol.path().grid_path()),
            &labels,
            &RenderOptions::default()
        )
    );
    println!("F = MCFIFO; T_s = 300 ps on the source side, T_t = 400 ps on the sink side");
    println!(
        "Reg-s = {}, Reg-t = {}, latency = T_s·(Reg_s+1) + T_t·(Reg_t+1) = {} ps",
        sol.regs_source_side(),
        sol.regs_sink_side(),
        sol.latency().ps()
    );
}
