//! Goal pruning for the sink→source searches: admissible remaining-cost
//! bounds plus cheap canonical-path probes that seed the upper bounds.
//!
//! A candidate `(c, d)` at node `v` must still traverse wire from `v` to
//! the source. [`clockroute_elmore::lower_bound::edge_rate`] gives a
//! per-edge rate `u` such that *any* buffered chain covering those edges
//! costs at least `u` per edge, so
//!
//! ```text
//! completion(candidate) ≥ d + W(v) + R_min·max(0, c − C_min)·1e-3
//! ```
//!
//! with `W(v)` the rate-weighted Manhattan distance from `v` to the
//! source, `R_min` the weakest driver resistance the search can deploy
//! (the driver that eventually drives the candidate's current load `c`
//! pays at least `R_min·c`, of which `R_min·C_min` is already inside
//! `W`), and `C_min` the minimum gate input capacitance. Every dropped
//! term is non-negative, so the bound is admissible: it never
//! overestimates the cost of *any* completion.
//!
//! * **Fast path** dooms a candidate when the bound exceeds a known
//!   achievable total `U` (from [`probe_fastpath`], tightened online as
//!   completed candidates are pushed). The returned optimum `T* ≤ U`
//!   satisfies `bound ≤ completion = T* ≤ U` along its entire lineage, so
//!   it is never doomed, and pruning only removes pushes without
//!   reordering survivors — the popped result is byte-identical.
//! * **RBP** dooms a candidate in wave `k` when even `p_ub − k` further
//!   registers (each buying one period `T`) cannot absorb the remaining
//!   work: `d + extra + max(0, W(v) − (p_ub−k)·T) > T`, where `p_ub` is a
//!   feasible register count from [`probe_rbp`]. Any completion spans
//!   `p − k` register stages plus the final source stage, each at most
//!   `T`, and their summed delay is at least `d + extra + W(v)`; a doomed
//!   candidate therefore cannot arrive feasibly by wave `p_ub`, while the
//!   search always returns in wave `w* ≤ p_ub`. Claim-marking divergence
//!   caused by pruned lineages only ever creates or suppresses register
//!   seeds that are themselves incapable of feasible arrival by `p_ub`
//!   (a seed's `(cap, delay)` state is claimant-independent), so the
//!   returned route is unchanged — see DESIGN.md §15 for the full
//!   argument.

use crate::ctx::Ctx;
use clockroute_elmore::lower_bound::{edge_rate, DriverModel, EdgeModel};
use clockroute_geom::Point;

/// Relative + absolute slop applied to doom thresholds so accumulated
/// floating-point error can never doom a candidate on the optimal lineage.
const EPS: f64 = 1e-9;

/// Admissible remaining-cost bound toward the source terminal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GoalBound {
    /// Per-edge rate (ps) for the `[horizontal, vertical]` axes.
    rate: [f64; 2],
    /// Source grid point.
    sp: Point,
    /// Weakest driver resistance (Ω) the search can deploy.
    r_min: f64,
    /// Minimum gate input capacitance (fF) any segment terminates into.
    c_min: f64,
}

impl GoalBound {
    /// Builds the bound for a search context. The driver set is the
    /// union over all searches (source gate, register, buffers): extra
    /// drivers only lower the rate, keeping it admissible everywhere.
    pub fn new(ctx: &Ctx<'_>) -> GoalBound {
        let mut drivers = vec![
            DriverModel {
                res_ohms: ctx.gs_res,
                intrinsic_ps: ctx.gs_k,
            },
            DriverModel {
                res_ohms: ctx.reg_res,
                intrinsic_ps: ctx.reg_k,
            },
        ];
        let mut c_min = ctx.reg_cap.min(ctx.lib.gate(ctx.gt).input_cap().ff());
        let mut r_min = ctx.min_res.min(ctx.gs_res);
        for b in &ctx.buffers {
            drivers.push(DriverModel {
                res_ohms: b.res,
                intrinsic_ps: b.k,
            });
            c_min = c_min.min(b.cap);
            r_min = r_min.min(b.res);
        }
        let share = if ctx.re[0] == ctx.re[1] && ctx.ce[0] == ctx.ce[1] {
            1.0
        } else {
            0.5
        };
        let rate = [0, 1].map(|a| {
            edge_rate(
                &drivers,
                EdgeModel {
                    res_ohms: ctx.re[a],
                    cap_ff: ctx.ce[a],
                },
                c_min,
                share,
            )
        });
        GoalBound {
            rate,
            sp: ctx.graph.point(ctx.s),
            r_min,
            c_min,
        }
    }

    /// Rate-weighted Manhattan distance `W(v)` from `p` to the source.
    #[inline]
    pub fn dist(&self, p: Point) -> f64 {
        let dx = f64::from(p.x.abs_diff(self.sp.x));
        let dy = f64::from(p.y.abs_diff(self.sp.y));
        self.rate[0] * dx + self.rate[1] * dy
    }

    /// Extra driver charge for a load above `C_min`.
    #[inline]
    pub fn load_extra(&self, cap: f64) -> f64 {
        self.r_min * (cap - self.c_min).max(0.0) * 1.0e-3
    }

    /// Fast path: `true` if no completion of `(cap, delay)` at `p` can
    /// beat the achievable total `upper`.
    #[inline]
    pub fn doomed(&self, p: Point, cap: f64, delay: f64, upper: f64) -> bool {
        delay + self.dist(p) + self.load_extra(cap) > upper * (1.0 + EPS) + EPS
    }

    /// RBP: `true` if `(cap, delay)` at `p` in wave `k` cannot arrive
    /// feasibly within `p_ub` total registers at period `t`.
    ///
    /// Each remaining register stage is credited a full period `t` of
    /// rate-weighted distance. Crediting less (say `t` minus the
    /// register overheads) would be unsound: the rate in `W` already
    /// admits the register itself as a repeater, so its amortized cost
    /// can include those overheads — subtracting them again would
    /// double-count and doom optimal lineages.
    #[inline]
    pub fn doomed_wave(&self, p: Point, cap: f64, delay: f64, waves_left: u32, t: f64) -> bool {
        let slack = self.dist(p) - f64::from(waves_left) * t;
        delay + self.load_extra(cap) + slack.max(0.0) > t * (1.0 + EPS) + EPS
    }
}

/// A probe state mirroring the searches' candidate tuples exactly.
#[derive(Debug, Clone, Copy)]
struct PState {
    cap: f64,
    delay: f64,
    regs: u32,
    /// `!gate_here`: may still receive a gate at the current node.
    capable: bool,
}

fn dominates(a: &PState, b: &PState) -> bool {
    a.cap <= b.cap && a.delay <= b.delay && a.regs <= b.regs && (a.capable || !b.capable)
}

/// Pareto-prunes `states` in place, capping the set size (dropping
/// states only weakens the probe result, never unsounds it).
fn prune(states: &mut Vec<PState>) {
    let mut kept: Vec<PState> = Vec::with_capacity(states.len());
    for s in states.drain(..) {
        if kept.iter().any(|k| dominates(k, &s)) {
            continue;
        }
        kept.retain(|k| !dominates(&s, k));
        kept.push(s);
    }
    if kept.len() > 64 {
        kept.sort_by(|a, b| a.delay.total_cmp(&b.delay));
        kept.truncate(64);
    }
    *states = kept;
}

/// The canonical monotone probe path from the sink to the source:
/// x-steps first, then y-steps. `None` if any edge on it is blocked.
fn probe_path(ctx: &Ctx<'_>) -> Option<Vec<clockroute_grid::NodeId>> {
    let graph = ctx.graph;
    let (sp, tp) = (graph.point(ctx.s), graph.point(ctx.t));
    let mut nodes = vec![ctx.t];
    let mut cur = tp;
    while cur != sp {
        let next = if cur.x != sp.x {
            Point::new(if cur.x < sp.x { cur.x + 1 } else { cur.x - 1 }, cur.y)
        } else {
            Point::new(cur.x, if cur.y < sp.y { cur.y + 1 } else { cur.y - 1 })
        };
        let (u, v) = (graph.node(cur), graph.node(next));
        if !graph.neighbors(u).any(|n| n == v) {
            return None;
        }
        nodes.push(v);
        cur = next;
    }
    Some(nodes)
}

/// Minimum buffered delay achievable along the canonical probe path —
/// an upper bound on the fast-path optimum. `None` disables pruning.
pub(crate) fn probe_fastpath(ctx: &Ctx<'_>) -> Option<f64> {
    let path = probe_path(ctx)?;
    let gt = ctx.lib.gate(ctx.gt);
    let mut states = vec![PState {
        cap: gt.input_cap().ff(),
        delay: gt.setup().ps(),
        regs: 0,
        capable: false,
    }];
    for win in path.windows(2) {
        let (u, v) = (win[0], win[1]);
        let (re, ce) = ctx.edge(u, v);
        for s in &mut states {
            s.delay += re * (s.cap + ce / 2.0);
            s.cap += ce;
            s.capable = true;
        }
        if v != ctx.s && graph_insertable(ctx, v) {
            let mut inserted = Vec::new();
            for s in &states {
                if !s.capable {
                    continue;
                }
                for b in &ctx.buffers {
                    inserted.push(PState {
                        cap: b.cap,
                        delay: s.delay + b.res * s.cap * 1.0e-3 + b.k,
                        regs: s.regs,
                        capable: false,
                    });
                }
            }
            states.extend(inserted);
        }
        prune(&mut states);
    }
    states
        .iter()
        .map(|s| ctx.finish_at_source(s.cap, s.delay))
        .min_by(f64::total_cmp)
}

/// A feasible register count along the canonical probe path at period
/// `t` — an upper bound on the RBP optimum's wave count. `None` (path
/// blocked or probe-infeasible) disables pruning.
pub(crate) fn probe_rbp(ctx: &Ctx<'_>, t: f64) -> Option<u32> {
    let path = probe_path(ctx)?;
    let gt = ctx.lib.gate(ctx.gt);
    let mut states = vec![PState {
        cap: gt.input_cap().ff(),
        delay: gt.setup().ps(),
        regs: 0,
        capable: false,
    }];
    for win in path.windows(2) {
        let (u, v) = (win[0], win[1]);
        let (re, ce) = ctx.edge(u, v);
        let mut next: Vec<PState> = Vec::with_capacity(states.len());
        for s in &states {
            let delay = s.delay + re * (s.cap + ce / 2.0);
            let cap = s.cap + ce;
            if delay > t - ctx.reg_k - ctx.min_res * cap * 1.0e-3 {
                continue;
            }
            next.push(PState {
                cap,
                delay,
                regs: s.regs,
                capable: true,
            });
        }
        states = next;
        if v != ctx.s {
            let mut inserted = Vec::new();
            for s in &states {
                if !s.capable {
                    continue;
                }
                if graph_insertable(ctx, v) {
                    for b in &ctx.buffers {
                        let delay = s.delay + b.res * s.cap * 1.0e-3 + b.k;
                        if delay > t - ctx.reg_k {
                            continue;
                        }
                        inserted.push(PState {
                            cap: b.cap,
                            delay,
                            regs: s.regs,
                            capable: false,
                        });
                    }
                }
                if ctx.graph.is_register_allowed(v) {
                    let stage = ctx.register_stage(s.cap, s.delay);
                    if stage <= t {
                        inserted.push(PState {
                            cap: ctx.reg_cap,
                            delay: ctx.reg_setup,
                            regs: s.regs + 1,
                            capable: false,
                        });
                    }
                }
            }
            states.extend(inserted);
        }
        if states.is_empty() {
            return None;
        }
        prune(&mut states);
    }
    states
        .iter()
        .filter(|s| ctx.finish_at_source(s.cap, s.delay) <= t)
        .map(|s| s.regs)
        .min()
}

#[inline]
fn graph_insertable(ctx: &Ctx<'_>, v: clockroute_grid::NodeId) -> bool {
    ctx.graph.is_insertable(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_elmore::{GateLibrary, Technology};
    use clockroute_geom::units::{Length, Time};
    use clockroute_grid::GridGraph;

    fn ctx_on<'a>(
        g: &'a GridGraph,
        tech: &'a Technology,
        lib: &'a GateLibrary,
        s: Point,
        t: Point,
    ) -> Ctx<'a> {
        let reg = lib.register();
        match Ctx::new(g, tech, lib, Some(s), Some(t), reg, reg) {
            Ok(c) => c,
            Err(e) => panic!("ctx: {e:?}"),
        }
    }

    #[test]
    fn fastpath_probe_upper_bounds_the_optimum() {
        let g = GridGraph::open(15, 15, Length::from_um(500.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let ctx = ctx_on(&g, &tech, &lib, Point::new(0, 0), Point::new(14, 14));
        let u = probe_fastpath(&ctx).expect("open grid");
        let sol = crate::FastPathSpec::new(&g, &tech, &lib)
            .source(Point::new(0, 0))
            .sink(Point::new(14, 14))
            .solve()
            .expect("open grid");
        assert!(
            u >= sol.delay().ps() - 1e-9,
            "U {u} < optimum {}",
            sol.delay()
        );
        // On an open uniform grid every monotone route is equivalent, so
        // the probe is in fact tight.
        assert!(u <= sol.delay().ps() + 1e-6, "U {u} should be tight");
    }

    #[test]
    fn bound_is_admissible_along_the_optimum() {
        let g = GridGraph::open(12, 12, Length::from_um(500.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let ctx = ctx_on(&g, &tech, &lib, Point::new(0, 0), Point::new(11, 11));
        let goal = GoalBound::new(&ctx);
        let sol = crate::FastPathSpec::new(&g, &tech, &lib)
            .source(Point::new(0, 0))
            .sink(Point::new(11, 11))
            .solve()
            .expect("open grid");
        // W from the sink must not exceed the full optimal delay.
        assert!(goal.dist(Point::new(11, 11)) <= sol.delay().ps());
        // And no point's W may exceed its own fastpath-from-there delay.
        for p in [Point::new(6, 6), Point::new(11, 0), Point::new(3, 9)] {
            let from_p = crate::FastPathSpec::new(&g, &tech, &lib)
                .source(Point::new(0, 0))
                .sink(p)
                .solve()
                .expect("open grid");
            assert!(
                goal.dist(p) <= from_p.delay().ps(),
                "W({p}) = {} exceeds achievable {}",
                goal.dist(p),
                from_p.delay()
            );
        }
    }

    #[test]
    fn rbp_probe_matches_search_on_open_grid() {
        let g = GridGraph::open(20, 20, Length::from_um(500.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let ctx = ctx_on(&g, &tech, &lib, Point::new(0, 0), Point::new(19, 19));
        for t in [250.0, 400.0, 800.0] {
            let p_ub = probe_rbp(&ctx, t).expect("feasible probe");
            let sol = crate::RbpSpec::new(&g, &tech, &lib)
                .source(Point::new(0, 0))
                .sink(Point::new(19, 19))
                .period(Time::from_ps(t))
                .solve()
                .expect("feasible");
            assert!(
                p_ub as usize >= sol.register_count(),
                "probe {p_ub} below optimum {}",
                sol.register_count()
            );
        }
    }

    #[test]
    fn blocked_probe_path_disables_pruning() {
        use clockroute_geom::BlockageMap;
        let mut blk = BlockageMap::new(8, 8);
        // Cut the canonical x-then-y path near the sink.
        blk.block_edge(Point::new(6, 7), Point::new(7, 7));
        let g = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let ctx = ctx_on(&g, &tech, &lib, Point::new(0, 0), Point::new(7, 7));
        assert!(probe_fastpath(&ctx).is_none());
        assert!(probe_rbp(&ctx, 400.0).is_none());
    }
}
