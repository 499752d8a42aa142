//! Design-rule checking for synthesized routes.
//!
//! A [`RoutedPath`] can be produced by any of the searches (or by hand);
//! this module re-validates one against *all* the rules the paper's
//! problem statements impose, independently of the search that built it:
//!
//! 1. **geometry** — consecutive points grid-adjacent, no blocked edges;
//! 2. **legality** — `p(v) = 1` wherever `m(v) ∈ I`, registers only
//!    outside register keep-outs;
//! 3. **timing** — every stage within its clock period, re-computed from
//!    scratch by the ground-truth Elmore evaluator;
//! 4. **structure** — exactly one MCFIFO for two-domain routes, none for
//!    single-domain routes.
//!
//! The searches are tested against this checker, but it is also part of
//! the public API so downstream flows can gate hand-edited or imported
//! routes.

use crate::RoutedPath;
use clockroute_elmore::delay::EvaluateRouteError;
use clockroute_elmore::{GateLibrary, Technology};
use clockroute_geom::units::Time;
use clockroute_geom::Point;
use clockroute_grid::{GridGraph, ValidatePathError};
use std::error::Error;
use std::fmt;

/// The clocking discipline a route must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockRule {
    /// No timing check (combinational route).
    Unconstrained,
    /// Single domain at the given period; no MCFIFO allowed.
    SingleDomain(Time),
    /// Two domains; exactly one MCFIFO required.
    TwoDomain {
        /// Sender period.
        t_s: Time,
        /// Receiver period.
        t_t: Time,
    },
}

/// A design-rule violation.
#[derive(Debug, Clone, PartialEq)]
pub enum DrcViolation {
    /// The geometric path is invalid.
    Geometry(ValidatePathError),
    /// A gate sits on a placement-blocked node.
    GateOnBlockedNode(Point),
    /// A register/latch/FIFO sits inside a register keep-out.
    RegisterInKeepout(Point),
    /// The route structure is malformed (evaluator rejected it).
    Malformed(EvaluateRouteError),
    /// A stage exceeds its clock period.
    StageTooSlow {
        /// Index of the offending stage (source side first).
        stage: usize,
        /// Its delay.
        delay: Time,
        /// The period it must meet.
        period: Time,
    },
    /// MCFIFO count does not match the clock rule.
    WrongFifoCount {
        /// FIFOs found on the route.
        found: usize,
        /// FIFOs the rule requires.
        required: usize,
    },
}

impl fmt::Display for DrcViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrcViolation::Geometry(e) => write!(f, "geometry: {e}"),
            DrcViolation::GateOnBlockedNode(p) => {
                write!(f, "gate placed on blocked node {p}")
            }
            DrcViolation::RegisterInKeepout(p) => {
                write!(f, "register placed inside keep-out at {p}")
            }
            DrcViolation::Malformed(e) => write!(f, "malformed route: {e}"),
            DrcViolation::StageTooSlow {
                stage,
                delay,
                period,
            } => write!(f, "stage #{stage} delay {delay} exceeds period {period}"),
            DrcViolation::WrongFifoCount { found, required } => {
                write!(f, "route has {found} MCFIFOs, rule requires {required}")
            }
        }
    }
}

impl Error for DrcViolation {}

/// Checks `path` against all design rules under `rule`.
///
/// Returns every violation found (empty = clean). Timing checks use a
/// 1 fs tolerance to absorb floating-point noise.
///
/// # Example
///
/// ```
/// use clockroute_core::{RbpSpec, drc};
/// use clockroute_elmore::{Technology, GateLibrary};
/// use clockroute_grid::GridGraph;
/// use clockroute_geom::{Point, units::{Length, Time}};
///
/// let graph = GridGraph::open(20, 20, Length::from_um(500.0));
/// let tech = Technology::paper_070nm();
/// let lib = GateLibrary::paper_library();
/// let t = Time::from_ps(300.0);
/// let sol = RbpSpec::new(&graph, &tech, &lib)
///     .source(Point::new(0, 0))
///     .sink(Point::new(19, 19))
///     .period(t)
///     .solve()?;
/// let violations = drc::check(
///     sol.path(), &graph, &tech, &lib, drc::ClockRule::SingleDomain(t),
/// );
/// assert!(violations.is_empty());
/// # Ok::<(), clockroute_core::RouteError>(())
/// ```
pub fn check(
    path: &RoutedPath,
    graph: &GridGraph,
    tech: &Technology,
    lib: &GateLibrary,
    rule: ClockRule,
) -> Vec<DrcViolation> {
    let mut violations = Vec::new();
    const EPS: f64 = 1e-3; // 1 fs in ps

    // 1. Geometry.
    if let Err(e) = path.grid_path().validate(graph) {
        violations.push(DrcViolation::Geometry(e));
    }

    // 2. Legality (terminals exempt: they belong to existing blocks).
    for (pt, gate) in path.gates() {
        if pt == path.source() || pt == path.sink() {
            continue;
        }
        if !graph.contains(pt) {
            continue; // already reported as geometry
        }
        if graph.blockage().is_node_blocked(pt) {
            violations.push(DrcViolation::GateOnBlockedNode(pt));
        } else if lib.gate(gate).kind().is_sequential() && graph.blockage().is_register_blocked(pt)
        {
            violations.push(DrcViolation::RegisterInKeepout(pt));
        }
    }

    // 3 & 4. Timing + structure, from the ground-truth evaluator.
    let elems = path.to_route_elems(graph);
    match clockroute_elmore::delay::evaluate(&elems, tech, lib) {
        Err(e) => violations.push(DrcViolation::Malformed(e)),
        Ok(report) => {
            let required_fifos = match rule {
                ClockRule::TwoDomain { .. } => 1,
                _ => 0,
            };
            if report.fifo_count != required_fifos {
                violations.push(DrcViolation::WrongFifoCount {
                    found: report.fifo_count,
                    required: required_fifos,
                });
            }
            match rule {
                ClockRule::Unconstrained => {}
                ClockRule::SingleDomain(t) => {
                    for (i, stage) in report.stages.iter().enumerate() {
                        if stage.delay.ps() > t.ps() + EPS {
                            violations.push(DrcViolation::StageTooSlow {
                                stage: i,
                                delay: stage.delay,
                                period: t,
                            });
                        }
                    }
                }
                ClockRule::TwoDomain { t_s, t_t } => {
                    use clockroute_elmore::delay::ClockDomain;
                    for (i, stage) in report.stages.iter().enumerate() {
                        let period = match stage.domain {
                            ClockDomain::Source => t_s,
                            ClockDomain::Sink => t_t,
                        };
                        if stage.delay.ps() > period.ps() + EPS {
                            violations.push(DrcViolation::StageTooSlow {
                                stage: i,
                                delay: stage.delay,
                                period,
                            });
                        }
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FastPathSpec, GalsSpec, RbpSpec};
    use clockroute_geom::units::Length;
    use clockroute_geom::BlockageMap;

    fn setup(n: u32) -> (GridGraph, Technology, GateLibrary) {
        (
            GridGraph::open(n, n, Length::from_um(500.0)),
            Technology::paper_070nm(),
            GateLibrary::paper_library(),
        )
    }

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn clean_solutions_pass() {
        let (g, tech, lib) = setup(25);
        let t = Time::from_ps(300.0);
        let rbp = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(24, 24))
            .period(t)
            .solve()
            .unwrap();
        assert!(check(rbp.path(), &g, &tech, &lib, ClockRule::SingleDomain(t)).is_empty());

        let fast = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(24, 24))
            .solve()
            .unwrap();
        assert!(check(fast.path(), &g, &tech, &lib, ClockRule::Unconstrained).is_empty());

        let gals = GalsSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(24, 24))
            .periods(t, Time::from_ps(400.0))
            .solve()
            .unwrap();
        assert!(check(
            gals.path(),
            &g,
            &tech,
            &lib,
            ClockRule::TwoDomain {
                t_s: t,
                t_t: Time::from_ps(400.0)
            }
        )
        .is_empty());
    }

    #[test]
    fn timing_violation_detected() {
        let (g, tech, lib) = setup(25);
        let sol = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(24, 24))
            .period(Time::from_ps(500.0))
            .solve()
            .unwrap();
        // Check the same route against a much tighter clock.
        let violations = check(
            sol.path(),
            &g,
            &tech,
            &lib,
            ClockRule::SingleDomain(Time::from_ps(100.0)),
        );
        assert!(violations
            .iter()
            .any(|v| matches!(v, DrcViolation::StageTooSlow { .. })));
    }

    #[test]
    fn fifo_count_rules() {
        let (g, tech, lib) = setup(20);
        let t = Time::from_ps(300.0);
        let rbp = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(19, 19))
            .period(t)
            .solve()
            .unwrap();
        // A single-domain route checked as two-domain lacks its FIFO.
        let violations = check(
            rbp.path(),
            &g,
            &tech,
            &lib,
            ClockRule::TwoDomain { t_s: t, t_t: t },
        );
        assert!(violations.iter().any(|v| matches!(
            v,
            DrcViolation::WrongFifoCount {
                found: 0,
                required: 1
            }
        )));
    }

    #[test]
    fn legality_violation_detected() {
        // Build a clean route, then block a node under one of its gates.
        let (g, tech, lib) = setup(20);
        let t = Time::from_ps(250.0);
        let sol = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(19, 19))
            .period(t)
            .solve()
            .unwrap();
        let (gate_pt, _) = sol
            .path()
            .gates()
            .find(|&(pt, _)| pt != p(0, 0) && pt != p(19, 19))
            .expect("an internal gate exists");
        let mut blk = BlockageMap::new(20, 20);
        blk.block_node(gate_pt);
        let g2 = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
        let violations = check(sol.path(), &g2, &tech, &lib, ClockRule::SingleDomain(t));
        assert!(violations.contains(&DrcViolation::GateOnBlockedNode(gate_pt)));
    }

    #[test]
    fn keepout_violation_detected() {
        let (g, tech, lib) = setup(20);
        let t = Time::from_ps(250.0);
        let sol = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(19, 19))
            .period(t)
            .solve()
            .unwrap();
        let reg_pt = sol
            .path()
            .gates()
            .find(|&(pt, gid)| {
                pt != p(0, 0) && pt != p(19, 19) && lib.gate(gid).kind().is_sequential()
            })
            .map(|(pt, _)| pt)
            .expect("a register exists");
        let mut blk = BlockageMap::new(20, 20);
        blk.block_register(reg_pt);
        let g2 = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
        let violations = check(sol.path(), &g2, &tech, &lib, ClockRule::SingleDomain(t));
        assert!(violations.contains(&DrcViolation::RegisterInKeepout(reg_pt)));
    }

    #[test]
    fn geometry_violation_detected() {
        let (g, tech, lib) = setup(20);
        let t = Time::from_ps(250.0);
        let sol = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(19, 19))
            .period(t)
            .solve()
            .unwrap();
        // Block an edge the route uses.
        let pts = sol.path().points();
        let mut blk = BlockageMap::new(20, 20);
        blk.block_edge(pts[3], pts[4]);
        let g2 = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
        let violations = check(sol.path(), &g2, &tech, &lib, ClockRule::SingleDomain(t));
        assert!(violations
            .iter()
            .any(|v| matches!(v, DrcViolation::Geometry(_))));
    }

    #[test]
    fn violation_display() {
        let v = DrcViolation::StageTooSlow {
            stage: 2,
            delay: Time::from_ps(350.0),
            period: Time::from_ps(300.0),
        };
        assert_eq!(v.to_string(), "stage #2 delay 350 ps exceeds period 300 ps");
        let v = DrcViolation::WrongFifoCount {
            found: 2,
            required: 1,
        };
        assert!(v.to_string().contains("2 MCFIFOs"));
    }
}
