//! Exhaustive reference oracles.
//!
//! Independent, brute-force implementations of the three problems, used
//! by the test-suite to certify optimality of the search algorithms on
//! small grids. The oracles enumerate **every simple path** up to a length
//! bound and, per path, run an exact Pareto dynamic program over all
//! possible insertions — no wave fronts, no queue ordering, no admissible
//! bounds, so any bug in those mechanisms would cause a divergence.
//!
//! Complexity is exponential in the grid size; keep instances tiny
//! (≲ 4×4 grids / ≲ 12 edges).

use crate::ctx::Ctx;
use crate::RouteError;
use clockroute_elmore::{GateLibrary, Technology};
use clockroute_geom::units::Time;
use clockroute_geom::Point;
use clockroute_grid::{GridGraph, NodeId};

/// Enumerates every simple `s → t` path with at most `max_edges` edges,
/// invoking `f` on each (as a slice of node ids, source first).
fn for_each_simple_path(
    graph: &GridGraph,
    s: NodeId,
    t: NodeId,
    max_edges: usize,
    f: &mut impl FnMut(&[NodeId]),
) {
    let mut visited = vec![false; graph.node_count()];
    let mut path = vec![s];
    visited[s.index()] = true;
    dfs(graph, t, max_edges, &mut visited, &mut path, f);
}

fn dfs(
    graph: &GridGraph,
    t: NodeId,
    max_edges: usize,
    visited: &mut [bool],
    path: &mut Vec<NodeId>,
    f: &mut impl FnMut(&[NodeId]),
) {
    #[expect(
        clippy::expect_used,
        reason = "recursion invariant: callers seed `path` with the source node"
    )]
    let u = *path.last().expect("path non-empty");
    if u == t {
        f(path);
        return;
    }
    if path.len() > max_edges {
        return;
    }
    for v in graph.neighbors(u) {
        if !visited[v.index()] {
            visited[v.index()] = true;
            path.push(v);
            dfs(graph, t, max_edges, visited, path, f);
            path.pop();
            visited[v.index()] = false;
        }
    }
}

#[derive(Clone, Copy)]
struct State {
    cap: f64,
    delay: f64,
}

fn pareto_insert(states: &mut Vec<State>, s: State) {
    if states.iter().any(|e| e.cap <= s.cap && e.delay <= s.delay) {
        return;
    }
    states.retain(|e| !(s.cap <= e.cap && s.delay <= e.delay));
    states.push(s);
}

/// Exhaustive minimum buffered-path delay (fast path oracle).
///
/// Explores every simple path of at most `max_edges` edges and every
/// buffer assignment on it; returns the global minimum source→sink delay.
///
/// # Errors
///
/// Returns [`RouteError`] for invalid terminals or if no path within the
/// bound connects them.
pub fn min_delay_exhaustive(
    graph: &GridGraph,
    tech: &Technology,
    lib: &GateLibrary,
    source: Point,
    sink: Point,
    max_edges: usize,
) -> Result<Time, RouteError> {
    let ctx = Ctx::new(
        graph,
        tech,
        lib,
        Some(source),
        Some(sink),
        lib.register(),
        lib.register(),
    )?;
    let mut best: Option<f64> = None;
    for_each_simple_path(graph, ctx.s, ctx.t, max_edges, &mut |path| {
        let gt = ctx.lib.gate(ctx.gt);
        let mut states = vec![State {
            cap: gt.input_cap().ff(),
            delay: gt.setup().ps(),
        }];
        // Walk backwards from the sink.
        for i in (0..path.len() - 1).rev() {
            let (re, ce) = ctx.edge(path[i], path[i + 1]);
            let mut next: Vec<State> = Vec::new();
            for st in &states {
                pareto_insert(
                    &mut next,
                    State {
                        cap: st.cap + ce,
                        delay: st.delay + re * (st.cap + ce / 2.0),
                    },
                );
            }
            states = next;
            // Buffer insertion happens *at* node i (before traversing the
            // next upstream edge), so apply it to the post-wire states.
            if i != 0 && graph.is_insertable(path[i]) {
                let mut with_buf = states.clone();
                for b in &ctx.buffers {
                    for st in &states {
                        pareto_insert(
                            &mut with_buf,
                            State {
                                cap: b.cap,
                                delay: st.delay + b.res * st.cap * 1.0e-3 + b.k,
                            },
                        );
                    }
                }
                states = with_buf;
            }
        }
        for st in &states {
            let total = ctx.finish_at_source(st.cap, st.delay);
            if best.is_none_or(|b| total < b) {
                best = Some(total);
            }
        }
    });
    best.map(Time::from_ps).ok_or(RouteError::NoFeasibleRoute)
}

/// Exhaustive minimum register count at clock period `t_phi`
/// (RBP oracle). Returns the minimum number of registers over every
/// simple path of at most `max_edges` edges and every buffer/register
/// assignment meeting the period.
///
/// # Errors
///
/// Returns [`RouteError`] for invalid terminals or if no feasible
/// assignment exists within the bound.
pub fn min_registers_exhaustive(
    graph: &GridGraph,
    tech: &Technology,
    lib: &GateLibrary,
    source: Point,
    sink: Point,
    t_phi: Time,
    max_edges: usize,
) -> Result<usize, RouteError> {
    let ctx = Ctx::new(
        graph,
        tech,
        lib,
        Some(source),
        Some(sink),
        lib.register(),
        lib.register(),
    )?;
    let t = t_phi.ps();
    let mut best: Option<usize> = None;
    for_each_simple_path(graph, ctx.s, ctx.t, max_edges, &mut |path| {
        let gt = ctx.lib.gate(ctx.gt);
        // states[r] = Pareto set of (cap, delay) with r registers used.
        let mut states: Vec<Vec<State>> = vec![vec![State {
            cap: gt.input_cap().ff(),
            delay: gt.setup().ps(),
        }]];
        for i in (0..path.len() - 1).rev() {
            let (re, ce) = ctx.edge(path[i], path[i + 1]);
            let mut next: Vec<Vec<State>> = vec![Vec::new(); states.len() + 1];
            for (r, bucket) in states.iter().enumerate() {
                for st in bucket {
                    let wired = State {
                        cap: st.cap + ce,
                        delay: st.delay + re * (st.cap + ce / 2.0),
                    };
                    pareto_insert(&mut next[r], wired);
                    if i != 0 {
                        if graph.is_insertable(path[i]) {
                            for b in &ctx.buffers {
                                pareto_insert(
                                    &mut next[r],
                                    State {
                                        cap: b.cap,
                                        delay: wired.delay + b.res * wired.cap * 1.0e-3 + b.k,
                                    },
                                );
                            }
                        }
                        if graph.is_register_allowed(path[i]) {
                            let stage = ctx.register_stage(wired.cap, wired.delay);
                            if stage <= t {
                                pareto_insert(
                                    &mut next[r + 1],
                                    State {
                                        cap: ctx.reg_cap,
                                        delay: ctx.reg_setup,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            states = next;
        }
        for (r, bucket) in states.iter().enumerate() {
            if best.is_some_and(|b| r >= b) {
                break;
            }
            if bucket
                .iter()
                .any(|st| ctx.finish_at_source(st.cap, st.delay) <= t)
            {
                best = Some(r);
            }
        }
    });
    best.ok_or(RouteError::NoFeasibleRoute)
}

/// Exhaustive minimum GALS latency (Problem 2 oracle): explores every
/// simple path, every relay/buffer assignment and every MCFIFO position.
/// Returns the minimum `T_s·(Reg_s+1) + T_t·(Reg_t+1)`.
///
/// # Errors
///
/// Returns [`RouteError`] for invalid terminals or if no feasible
/// assignment exists within the bound.
#[allow(clippy::too_many_arguments)]
pub fn min_gals_latency_exhaustive(
    graph: &GridGraph,
    tech: &Technology,
    lib: &GateLibrary,
    source: Point,
    sink: Point,
    t_s: Time,
    t_t: Time,
    max_edges: usize,
) -> Result<Time, RouteError> {
    let ctx = Ctx::new(
        graph,
        tech,
        lib,
        Some(source),
        Some(sink),
        lib.register(),
        lib.register(),
    )?;
    let ts = t_s.ps();
    let tt = t_t.ps();
    let fifo = ctx.lib.gate(ctx.lib.mcfifo());
    let (f_res, f_cap, f_k, f_setup) = (
        fifo.driver_res().ohms(),
        fifo.input_cap().ff(),
        fifo.intrinsic().ps(),
        fifo.setup().ps(),
    );
    let mut best: Option<f64> = None;
    for_each_simple_path(graph, ctx.s, ctx.t, max_edges, &mut |path| {
        use std::collections::BTreeMap;
        // Key: (fifo inserted, regs before fifo (source side), regs after).
        let gt = ctx.lib.gate(ctx.gt);
        let mut states: BTreeMap<(bool, usize, usize), Vec<State>> = BTreeMap::new();
        states.insert(
            (false, 0, 0),
            vec![State {
                cap: gt.input_cap().ff(),
                delay: gt.setup().ps(),
            }],
        );
        for i in (0..path.len() - 1).rev() {
            let (re, ce) = ctx.edge(path[i], path[i + 1]);
            let mut next: BTreeMap<(bool, usize, usize), Vec<State>> = BTreeMap::new();
            for (&(z, rs, rt), bucket) in &states {
                let t_cur = if z { ts } else { tt };
                for st in bucket {
                    let wired = State {
                        cap: st.cap + ce,
                        delay: st.delay + re * (st.cap + ce / 2.0),
                    };
                    pareto_insert(next.entry((z, rs, rt)).or_default(), wired);
                    if i != 0 {
                        if graph.is_insertable(path[i]) {
                            for b in &ctx.buffers {
                                pareto_insert(
                                    next.entry((z, rs, rt)).or_default(),
                                    State {
                                        cap: b.cap,
                                        delay: wired.delay + b.res * wired.cap * 1.0e-3 + b.k,
                                    },
                                );
                            }
                        }
                        if graph.is_register_allowed(path[i]) {
                            // Relay station.
                            let stage = ctx.register_stage(wired.cap, wired.delay);
                            if stage <= t_cur {
                                let key = if z { (z, rs + 1, rt) } else { (z, rs, rt + 1) };
                                pareto_insert(
                                    next.entry(key).or_default(),
                                    State {
                                        cap: ctx.reg_cap,
                                        delay: ctx.reg_setup,
                                    },
                                );
                            }
                            // MCFIFO (only once).
                            if !z {
                                let stage = wired.delay + f_res * wired.cap * 1.0e-3 + f_k;
                                if stage <= tt {
                                    pareto_insert(
                                        next.entry((true, rs, rt)).or_default(),
                                        State {
                                            cap: f_cap,
                                            delay: f_setup,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
            states = next;
        }
        for (&(z, rs, rt), bucket) in &states {
            if !z {
                continue;
            }
            let latency = ts * (rs as f64 + 1.0) + tt * (rt as f64 + 1.0);
            if best.is_some_and(|b| latency >= b) {
                continue;
            }
            if bucket
                .iter()
                .any(|st| ctx.finish_at_source(st.cap, st.delay) <= ts)
            {
                best = Some(latency);
            }
        }
    });
    best.map(Time::from_ps).ok_or(RouteError::NoFeasibleRoute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::units::Length;

    fn setup(w: u32, h: u32, pitch_um: f64) -> (GridGraph, Technology, GateLibrary) {
        (
            GridGraph::open(w, h, Length::from_um(pitch_um)),
            Technology::paper_070nm(),
            GateLibrary::paper_library(),
        )
    }

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn path_enumeration_counts() {
        let (g, _, _) = setup(3, 3, 100.0);
        let mut count = 0usize;
        for_each_simple_path(&g, g.node(p(0, 0)), g.node(p(2, 2)), 8, &mut |_| count += 1);
        // Simple paths (0,0)→(2,2) on a 3×3 grid with ≤8 edges: the 6
        // monotone 4-edge paths plus longer detours = 12 within 8 edges.
        assert!(
            count >= 6,
            "expected at least the monotone paths, got {count}"
        );
        let mut monotone = 0usize;
        for_each_simple_path(&g, g.node(p(0, 0)), g.node(p(2, 2)), 4, &mut |path| {
            assert_eq!(path.len(), 5);
            monotone += 1;
        });
        assert_eq!(monotone, 6);
    }

    #[test]
    fn oracle_min_delay_on_straight_line() {
        // On a 2-node grid the oracle must equal the closed form.
        let (g, tech, lib) = setup(2, 1, 1000.0);
        let d = min_delay_exhaustive(&g, &tech, &lib, p(0, 0), p(1, 0), 1).unwrap();
        let reg = *lib.gate(lib.register());
        let expected =
            clockroute_elmore::calib::segment_delay(&tech, &reg, Length::from_um(1000.0), &reg);
        assert!((d.ps() - expected.ps()).abs() < 1e-9);
    }

    #[test]
    fn oracle_unreachable() {
        let (g, tech, lib) = setup(3, 3, 100.0);
        // Bound of 2 edges cannot reach a Manhattan-4 target.
        assert_eq!(
            min_delay_exhaustive(&g, &tech, &lib, p(0, 0), p(2, 2), 2).unwrap_err(),
            RouteError::NoFeasibleRoute
        );
    }

    #[test]
    fn oracle_min_registers_zero_when_loose() {
        let (g, tech, lib) = setup(3, 1, 500.0);
        let r =
            min_registers_exhaustive(&g, &tech, &lib, p(0, 0), p(2, 0), Time::from_ps(1000.0), 4)
                .unwrap();
        assert_eq!(r, 0);
    }

    #[test]
    fn oracle_min_registers_forced_by_tight_period() {
        // 2 mm line, period ≈ just above a 1 mm stage: needs ≥1 register.
        let (g, tech, lib) = setup(3, 1, 1000.0);
        let reg = *lib.gate(lib.register());
        let one_mm =
            clockroute_elmore::calib::segment_delay(&tech, &reg, Length::from_um(1000.0), &reg);
        let r = min_registers_exhaustive(
            &g,
            &tech,
            &lib,
            p(0, 0),
            p(2, 0),
            Time::from_ps(one_mm.ps() + 1.0),
            4,
        )
        .unwrap();
        assert_eq!(r, 1);
    }

    #[test]
    fn oracle_gals_tiny() {
        // 3-node line: FIFO must sit at the middle node.
        let (g, tech, lib) = setup(3, 1, 500.0);
        let lat = min_gals_latency_exhaustive(
            &g,
            &tech,
            &lib,
            p(0, 0),
            p(2, 0),
            Time::from_ps(300.0),
            Time::from_ps(400.0),
            4,
        )
        .unwrap();
        // No relays needed at these loose periods: Ts + Tt.
        assert_eq!(lat, Time::from_ps(700.0));
    }
}
