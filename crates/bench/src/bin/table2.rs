//! Regenerates **Table II** (E2): RBP performance as a function of clock
//! period and grid size (0.5 / 0.25 / 0.125 mm separations), plus the
//! §V-B observation verdicts (E7).
//!
//! Usage: `cargo run --release -p clockroute-bench --bin table2 [max_grid]`
//! (default 200; pass 100 to skip the largest grid).

use clockroute_bench::{format_regpath_table, paper_reference, table1, RegPathRow, PAPER_PERIODS};

fn main() {
    let max_grid: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    let grids: Vec<u32> = [50u32, 100, 200]
        .into_iter()
        .filter(|&g| g <= max_grid)
        .collect();
    let mut all: Vec<(u32, Vec<RegPathRow>)> = Vec::new();
    for &grid in &grids {
        let sep_mm = 25.0 / f64::from(grid);
        println!("\n## Grid separation {sep_mm} mm: {grid}×{grid} grid\n");
        let rows = table1(grid, &PAPER_PERIODS);
        println!("{}", format_regpath_table(&rows, paper_reference(grid)));
        all.push((grid, rows));
    }

    println!("\n## §V-B observation verdicts (E7)");
    // Obs. 1/2: a finer grid achieves latency ≤ the coarser grid's at
    // every period (strictly better somewhere).
    let mut finer_never_worse = true;
    let mut finer_sometimes_better = false;
    for w in all.windows(2) {
        let (_, coarse) = &w[0];
        let (_, fine) = &w[1];
        for (c, f) in coarse.iter().zip(fine.iter()) {
            match (c.latency, f.latency) {
                (Some(cl), Some(fl)) => {
                    if fl > cl + 1e-6 {
                        finer_never_worse = false;
                    }
                    if fl < cl - 1e-6 {
                        finer_sometimes_better = true;
                    }
                }
                (Some(_), None) => finer_never_worse = false,
                (None, Some(_)) => finer_sometimes_better = true,
                (None, None) => {}
            }
        }
    }
    println!(
        "- obs.1/2 finer grid never worse, sometimes better ....... {}",
        verdict(finer_never_worse && finer_sometimes_better)
    );
    // Obs. 3: coarse grids infeasible at very small periods while the
    // finest grid still routes.
    let coarse_infeasible = all.first().is_some_and(|(_, rows)| {
        rows.iter()
            .any(|r| r.period.is_some_and(|p| p < 60.0) && r.latency.is_none())
    });
    let fine_feasible = all.last().is_some_and(|(_, rows)| {
        rows.iter()
            .any(|r| r.period.is_some_and(|p| p < 60.0) && r.latency.is_some())
    });
    println!(
        "- obs.3 coarse grid fails at small periods, fine succeeds  {}",
        verdict(coarse_infeasible && (all.len() < 2 || fine_feasible))
    );
    // Obs. 4: at periods above ~84 ps the latency stays within one period
    // of the optimal fast-path delay (finest grid).
    if let Some((_, rows)) = all.last() {
        let fast = rows
            .iter()
            .find(|r| r.period.is_none())
            .and_then(|r| r.latency);
        let ok = match fast {
            Some(d0) => rows
                .iter()
                .filter(|r| r.period.is_some_and(|p| p > 84.0))
                .filter_map(|r| r.latency.map(|l| (r.period.unwrap_or(0.0), l)))
                .all(|(p, l)| l <= d0 + p + 1e-6),
            None => false,
        };
        println!(
            "- obs.4 latency within one period of optimal (T > 84) .... {}",
            verdict(ok)
        );
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "REPRODUCED"
    } else {
        "NOT reproduced"
    }
}
