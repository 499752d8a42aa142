//! Shared, pre-resolved search context.
//!
//! Validates terminals and pre-extracts the raw `f64` electrical
//! parameters the inner loops need (unit-wrapped arithmetic is used at API
//! boundaries; the hot loops run on plain numbers in fF/ps/Ω).

use crate::RouteError;
use clockroute_elmore::{GateId, GateLibrary, Technology};
use clockroute_geom::Point;
use clockroute_grid::{GridGraph, NodeId};

/// A pre-resolved buffer model for the inner loops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufModel {
    pub id: GateId,
    pub res: f64,
    pub cap: f64,
    pub k: f64,
}

/// Pre-resolved search context shared by all algorithms.
pub(crate) struct Ctx<'a> {
    pub graph: &'a GridGraph,
    pub lib: &'a GateLibrary,
    pub s: NodeId,
    pub t: NodeId,
    pub gs: GateId,
    pub gt: GateId,
    /// Per-edge wire resistance (Ω): `[horizontal, vertical]`.
    pub re: [f64; 2],
    /// Per-edge wire capacitance (fF): `[horizontal, vertical]`.
    pub ce: [f64; 2],
    /// Register model raw values.
    pub reg_id: GateId,
    pub reg_res: f64,
    pub reg_cap: f64,
    pub reg_k: f64,
    pub reg_setup: f64,
    /// Source gate raw values.
    pub gs_res: f64,
    pub gs_k: f64,
    /// `min R(B ∪ {r})` for the admissible wire bound.
    pub min_res: f64,
    /// Buffer library, pre-resolved.
    pub buffers: Vec<BufModel>,
}

impl<'a> Ctx<'a> {
    pub fn new(
        graph: &'a GridGraph,
        tech: &'a Technology,
        lib: &'a GateLibrary,
        source: Option<Point>,
        sink: Option<Point>,
        source_gate: GateId,
        sink_gate: GateId,
    ) -> Result<Ctx<'a>, RouteError> {
        let source = source.ok_or(RouteError::UnspecifiedSource)?;
        let sink = sink.ok_or(RouteError::UnspecifiedSink)?;
        if !graph.contains(source) {
            return Err(RouteError::SourceOffGrid(source));
        }
        if !graph.contains(sink) {
            return Err(RouteError::SinkOffGrid(sink));
        }
        if source == sink {
            return Err(RouteError::SameSourceSink(source));
        }
        let reg = lib.gate(lib.register());
        let gs_gate = lib.gate(source_gate);
        let buffers = lib
            .buffers()
            .map(|id| {
                let g = lib.gate(id);
                BufModel {
                    id,
                    res: g.driver_res().ohms(),
                    cap: g.input_cap().ff(),
                    k: g.intrinsic().ps(),
                }
            })
            .collect();
        Ok(Ctx {
            graph,
            lib,
            s: graph.node(source),
            t: graph.node(sink),
            gs: source_gate,
            gt: sink_gate,
            re: [
                (tech.unit_res() * graph.pitch_x()).ohms(),
                (tech.unit_res() * graph.pitch_y()).ohms(),
            ],
            ce: [
                (tech.unit_cap() * graph.pitch_x()).ff(),
                (tech.unit_cap() * graph.pitch_y()).ff(),
            ],
            reg_id: lib.register(),
            reg_res: reg.driver_res().ohms(),
            reg_cap: reg.input_cap().ff(),
            reg_k: reg.intrinsic().ps(),
            reg_setup: reg.setup().ps(),
            gs_res: gs_gate.driver_res().ohms(),
            gs_k: gs_gate.intrinsic().ps(),
            min_res: lib.min_driver_res().ohms(),
            buffers,
        })
    }

    /// Raw `(R, C)` of the edge between adjacent nodes `u` and `v`, with
    /// the Ω·fF → ps factor already folded into `R`.
    #[inline]
    pub fn edge(&self, u: NodeId, v: NodeId) -> (f64, f64) {
        let axis = usize::from(self.graph.point(u).y != self.graph.point(v).y);
        (self.re[axis] * 1.0e-3, self.ce[axis])
    }

    /// Source-gate completion delay for a candidate `(c, d)` at `s`:
    /// `d + R(g_s)·c + K(g_s)` (ps).
    #[inline]
    pub fn finish_at_source(&self, cap: f64, delay: f64) -> f64 {
        delay + self.gs_res * cap * 1.0e-3 + self.gs_k
    }

    /// Register insertion delay for a candidate `(c, d)`:
    /// `d + R(r)·c + K(r)` (ps).
    #[inline]
    pub fn register_stage(&self, cap: f64, delay: f64) -> f64 {
        self.gate_stage(self.reg_id, cap, delay)
    }

    /// Delay of the stage closed by inserting `gate` at a candidate
    /// `(c, d)`: `d + R(gate)·c + K(gate)` (ps).
    #[inline]
    pub fn gate_stage(&self, gate: GateId, cap: f64, delay: f64) -> f64 {
        let g = self.lib.gate(gate);
        delay + g.driver_res().ohms() * cap * 1.0e-3 + g.intrinsic().ps()
    }

    /// Smallest input capacitance any gate the searches place can
    /// present: the floor for downstream loads.
    pub fn min_gate_cap(&self) -> f64 {
        let mut best = self
            .reg_cap
            .min(self.lib.gate(self.gt).input_cap().ff());
        for b in &self.buffers {
            best = best.min(b.cap);
        }
        best
    }

    /// Bucket-width hint for the dial queue: the cheapest single-edge
    /// key increment a wire expansion can produce,
    /// `min_a R_e[a]·(C_min + C_e[a]/2)·1e-3` (ps). Keys grow by at
    /// least roughly this per push, so buckets of this width stay small.
    pub fn queue_scale(&self) -> f64 {
        let c_min = self.min_gate_cap();
        let mut best = f64::INFINITY;
        for a in 0..2 {
            let step = self.re[a] * 1.0e-3 * (c_min + self.ce[a] / 2.0);
            best = best.min(step);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::units::Length;

    fn setup() -> (GridGraph, Technology, GateLibrary) {
        (
            GridGraph::open(5, 5, Length::from_um(125.0)),
            Technology::paper_070nm(),
            GateLibrary::paper_library(),
        )
    }

    #[test]
    fn validates_terminals() {
        let (g, tech, lib) = setup();
        let reg = lib.register();
        let mk = |s: Option<Point>, t: Option<Point>| {
            Ctx::new(&g, &tech, &lib, s, t, reg, reg).map(|_| ())
        };
        assert_eq!(mk(None, Some(Point::new(1, 1))), Err(RouteError::UnspecifiedSource));
        assert_eq!(mk(Some(Point::new(1, 1)), None), Err(RouteError::UnspecifiedSink));
        assert_eq!(
            mk(Some(Point::new(9, 0)), Some(Point::new(1, 1))),
            Err(RouteError::SourceOffGrid(Point::new(9, 0)))
        );
        assert_eq!(
            mk(Some(Point::new(1, 1)), Some(Point::new(0, 9))),
            Err(RouteError::SinkOffGrid(Point::new(0, 9)))
        );
        assert_eq!(
            mk(Some(Point::new(1, 1)), Some(Point::new(1, 1))),
            Err(RouteError::SameSourceSink(Point::new(1, 1)))
        );
        assert!(mk(Some(Point::new(0, 0)), Some(Point::new(4, 4))).is_ok());
    }

    #[test]
    fn edge_parameters() {
        let (g, tech, lib) = setup();
        let reg = lib.register();
        let ctx = Ctx::new(
            &g,
            &tech,
            &lib,
            Some(Point::new(0, 0)),
            Some(Point::new(4, 4)),
            reg,
            reg,
        )
        .unwrap();
        let u = g.node(Point::new(1, 1));
        let east = g.node(Point::new(2, 1));
        let (r, c) = ctx.edge(u, east);
        // 125 µm at 1.39 Ω/µm = 173.75 Ω (ps-scaled: 0.17375) and 1.25 fF.
        assert!((r - 0.17375).abs() < 1e-12);
        assert!((c - 1.25).abs() < 1e-12);
    }

    #[test]
    fn helper_delays() {
        let (g, tech, lib) = setup();
        let reg = lib.register();
        let ctx = Ctx::new(
            &g,
            &tech,
            &lib,
            Some(Point::new(0, 0)),
            Some(Point::new(4, 4)),
            reg,
            reg,
        )
        .unwrap();
        // finish: d + 180·c·1e-3 + 36.4
        let f = ctx.finish_at_source(100.0, 10.0);
        assert!((f - (10.0 + 18.0 + 36.4)).abs() < 1e-9);
        let r = ctx.register_stage(100.0, 10.0);
        assert!((r - (10.0 + 18.0 + 36.4)).abs() < 1e-9);
        assert_eq!(ctx.buffers.len(), 1);
        assert!((ctx.min_res - 180.0).abs() < 1e-12);
    }
}
