//! Multi-fanout nets: register/repeater insertion on a routing tree.
//!
//! The paper's algorithms route two-pin nets; for a broadcast net (one
//! source, many sinks) the tree extension (after Cocchini, cited in the
//! paper's §I) inserts registers and buffers on a Steiner-style tree so
//! that *every* root-to-sink stage meets the clock, sharing trunk
//! registers between sinks. The example compares the tree solution
//! against routing each sink independently with RBP.
//!
//! Run with: `cargo run --release --example multifanout`

use clockroute::prelude::*;
use clockroute::tree::{RoutingTree, TreeInsertionSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = GridGraph::open(50, 50, Length::from_um(500.0));
    let tech = Technology::paper_070nm();
    let lib = GateLibrary::paper_library();
    let source = Point::new(2, 25);
    let sinks = [
        Point::new(47, 4),
        Point::new(47, 25),
        Point::new(47, 46),
        Point::new(25, 47),
    ];
    let period = Time::from_ps(300.0);

    // Tree solution: one Steiner tree, shared trunk registers.
    let tree = RoutingTree::rectilinear(&graph, source, &sinks)?;
    let sol = TreeInsertionSpec::new(&tree, &graph, &tech, &lib)
        .period(period)
        .solve()?;
    assert!(sol.verify_on(&tree, &graph, &tech, &lib));

    println!(
        "broadcast net: 1 source → {} sinks, clock {period}, tree wirelength {} edges\n",
        sinks.len(),
        tree.edge_count()
    );
    println!("tree insertion (shared trunk):");
    println!(
        "  {} registers, {} buffers total",
        sol.register_count(),
        sol.buffer_count()
    );
    for (sink, latency) in sol.sink_latencies() {
        println!(
            "  sink {sink}: latency {:.0} ({} cycles)",
            latency.ps(),
            (latency.ps() / period.ps()) as u32
        );
    }

    // Baseline: route every sink independently with RBP.
    let mut indep_regs = 0;
    let mut indep_bufs = 0;
    let mut indep_edges = 0;
    for &sink in &sinks {
        let rbp = RbpSpec::new(&graph, &tech, &lib)
            .source(source)
            .sink(sink)
            .period(period)
            .solve()?;
        indep_regs += rbp.register_count();
        indep_bufs += rbp.buffer_count();
        indep_edges += rbp.path().edge_count();
    }
    println!("\nindependent point-to-point routes (no sharing):");
    println!("  {indep_regs} registers, {indep_bufs} buffers, {indep_edges} edges of wire");
    println!(
        "\nsharing the trunk saves {} registers and {} grid edges of wire",
        indep_regs as i64 - sol.register_count() as i64,
        indep_edges as i64 - tree.edge_count() as i64
    );
    assert!(sol.register_count() <= indep_regs);
    Ok(())
}
