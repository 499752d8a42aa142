//! Switch-level gate models and the insertable-element library.
//!
//! The paper's set of insertable elements is `I = B ∪ {r}` for the
//! single-clock problem and `I = B ∪ {r, f}` for the GALS problem, where
//! `B` is a library of non-inverting buffers, `r` a register (or relay
//! station — the paper treats them as delay-identical, §IV-B) and `f` the
//! MCFIFO. Every element `g` is characterised by its driver resistance
//! `R(g)`, intrinsic delay `K(g)` and input capacitance `C(g)`; sequential
//! elements additionally have a setup time `Setup(g)`.

use clockroute_geom::units::{Capacitance, Resistance, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The role a gate plays on a routed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// A non-inverting combinational repeater.
    Buffer,
    /// An edge-triggered register used as a synchronizer (also models a
    /// relay station, which has the same delay properties — paper §IV-B).
    Register,
    /// A level-sensitive transparent latch (extension, paper ref.\ \[9\]).
    Latch,
    /// The mixed-clock FIFO element of Chelcea & Nowick.
    McFifo,
}

impl GateKind {
    /// `true` for elements that are clocked (break combinational stages).
    #[inline]
    pub fn is_sequential(self) -> bool {
        !matches!(self, GateKind::Buffer)
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Buffer => "buffer",
            GateKind::Register => "register",
            GateKind::Latch => "latch",
            GateKind::McFifo => "mcfifo",
        };
        f.write_str(s)
    }
}

/// A switch-level gate model.
///
/// `Gate` is a small `Copy` value; human-readable names live in the
/// [`GateLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    kind: GateKind,
    driver_res: Resistance,
    input_cap: Capacitance,
    intrinsic: Time,
    setup: Time,
}

impl Gate {
    /// Creates a gate model.
    ///
    /// # Panics
    ///
    /// Panics if resistance/capacitance are not strictly positive, if the
    /// intrinsic delay or setup time is negative, or if a combinational
    /// gate is given a non-zero setup time.
    pub fn new(
        kind: GateKind,
        driver_res: Resistance,
        input_cap: Capacitance,
        intrinsic: Time,
        setup: Time,
    ) -> Gate {
        assert!(
            driver_res.ohms() > 0.0,
            "driver resistance must be positive"
        );
        assert!(input_cap.ff() > 0.0, "input capacitance must be positive");
        assert!(
            intrinsic.ps() >= 0.0,
            "intrinsic delay must be non-negative"
        );
        assert!(setup.ps() >= 0.0, "setup time must be non-negative");
        assert!(
            kind.is_sequential() || setup == Time::ZERO,
            "combinational gates have no setup time"
        );
        Gate {
            kind,
            driver_res,
            input_cap,
            intrinsic,
            setup,
        }
    }

    /// The gate's role.
    #[inline]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Driver (output) resistance `R(g)`.
    #[inline]
    pub fn driver_res(&self) -> Resistance {
        self.driver_res
    }

    /// Input capacitance `C(g)`.
    #[inline]
    pub fn input_cap(&self) -> Capacitance {
        self.input_cap
    }

    /// Intrinsic delay `K(g)`.
    #[inline]
    pub fn intrinsic(&self) -> Time {
        self.intrinsic
    }

    /// Setup time `Setup(g)` (zero for combinational gates).
    #[inline]
    pub fn setup(&self) -> Time {
        self.setup
    }

    /// Switch-level gate delay when driving a load `c_load`:
    /// `R(g) · c_load + K(g)`.
    #[inline]
    pub fn delay(&self, c_load: Capacitance) -> Time {
        self.driver_res * c_load + self.intrinsic
    }
}

/// Identifier of a gate within a [`GateLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GateId(u16);

impl GateId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The library of insertable elements available to the search.
///
/// Holds the buffer library `B` plus the distinguished register, latch and
/// MCFIFO models.
///
/// ```
/// use clockroute_elmore::{GateLibrary, GateKind};
/// let lib = GateLibrary::paper_library();
/// assert_eq!(lib.buffers().count(), 1);
/// assert_eq!(lib.gate(lib.register()).kind(), GateKind::Register);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateLibrary {
    gates: Vec<Gate>,
    names: Vec<String>,
    buffers: Vec<GateId>,
    register: GateId,
    latch: GateId,
    mcfifo: GateId,
}

/// Builder for [`GateLibrary`].
#[derive(Debug, Clone, Default)]
pub struct GateLibraryBuilder {
    gates: Vec<Gate>,
    names: Vec<String>,
    buffers: Vec<GateId>,
    register: Option<GateId>,
    latch: Option<GateId>,
    mcfifo: Option<GateId>,
}

impl GateLibraryBuilder {
    /// Creates an empty builder.
    pub fn new() -> GateLibraryBuilder {
        GateLibraryBuilder::default()
    }

    fn push(&mut self, name: &str, gate: Gate) -> GateId {
        #[expect(
            clippy::expect_used,
            reason = "builder API contract: libraries are tiny, >u16::MAX gates is caller error"
        )]
        let id = GateId(u16::try_from(self.gates.len()).expect("too many gates"));
        self.gates.push(gate);
        self.names.push(name.to_owned());
        id
    }

    /// Adds a buffer to the library `B`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not a [`GateKind::Buffer`].
    pub fn buffer(mut self, name: &str, gate: Gate) -> Self {
        assert_eq!(gate.kind(), GateKind::Buffer, "expected a buffer model");
        let id = self.push(name, gate);
        self.buffers.push(id);
        self
    }

    /// Sets the register (and relay-station) model.
    pub fn register(mut self, name: &str, gate: Gate) -> Self {
        assert_eq!(gate.kind(), GateKind::Register, "expected a register model");
        let id = self.push(name, gate);
        self.register = Some(id);
        self
    }

    /// Sets the transparent-latch model.
    pub fn latch(mut self, name: &str, gate: Gate) -> Self {
        assert_eq!(gate.kind(), GateKind::Latch, "expected a latch model");
        let id = self.push(name, gate);
        self.latch = Some(id);
        self
    }

    /// Sets the MCFIFO model.
    pub fn mcfifo(mut self, name: &str, gate: Gate) -> Self {
        assert_eq!(gate.kind(), GateKind::McFifo, "expected an MCFIFO model");
        let id = self.push(name, gate);
        self.mcfifo = Some(id);
        self
    }

    /// Finishes the library.
    ///
    /// # Panics
    ///
    /// Panics if the buffer library is empty or if no register model was
    /// provided. The latch and MCFIFO models default to register-delay
    /// clones when unset (the paper assumes identical delay
    /// characteristics for register and MCFIFO).
    pub fn build(mut self) -> GateLibrary {
        assert!(!self.buffers.is_empty(), "buffer library may not be empty");
        #[expect(
            clippy::expect_used,
            reason = "documented builder contract: build() panics without a register model"
        )]
        let register = self.register.expect("a register model is required");
        let reg_gate = self.gates[register.index()];
        let latch = self.latch.unwrap_or_else(|| {
            let g = Gate::new(
                GateKind::Latch,
                reg_gate.driver_res(),
                reg_gate.input_cap(),
                reg_gate.intrinsic(),
                reg_gate.setup(),
            );
            self.push("latch(default)", g)
        });
        let mcfifo = self.mcfifo.unwrap_or_else(|| {
            let g = Gate::new(
                GateKind::McFifo,
                reg_gate.driver_res(),
                reg_gate.input_cap(),
                reg_gate.intrinsic(),
                reg_gate.setup(),
            );
            self.push("mcfifo(default)", g)
        });
        GateLibrary {
            gates: self.gates,
            names: self.names,
            buffers: self.buffers,
            register,
            latch,
            mcfifo,
        }
    }
}

impl GateLibrary {
    /// The library used by the paper's experiments: a single buffer of
    /// 100× minimum gate width, with register and MCFIFO delay
    /// characteristics identical to the buffer (§V), plus a 2 ps setup
    /// time for sequential elements.
    ///
    /// Parameter provenance is documented on
    /// [`Technology::paper_070nm`](crate::Technology::paper_070nm).
    pub fn paper_library() -> GateLibrary {
        let r = Resistance::from_ohms(180.0);
        let c = Capacitance::from_ff(23.4);
        let k = Time::from_ps(36.4);
        let setup = Time::from_ps(2.0);
        GateLibraryBuilder::new()
            .buffer("buf100x", Gate::new(GateKind::Buffer, r, c, k, Time::ZERO))
            .register("reg100x", Gate::new(GateKind::Register, r, c, k, setup))
            .latch("lat100x", Gate::new(GateKind::Latch, r, c, k, setup))
            .mcfifo("mcfifo", Gate::new(GateKind::McFifo, r, c, k, setup))
            .build()
    }

    /// Starts building a custom library.
    pub fn builder() -> GateLibraryBuilder {
        GateLibraryBuilder::new()
    }

    /// Looks up a gate model.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this library.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The gate's human-readable name.
    pub fn name(&self, id: GateId) -> &str {
        &self.names[id.index()]
    }

    /// The id for a raw gate index, if it belongs to this library.
    /// The checked inverse of [`GateId::index`], for decoders that
    /// reconstruct labels from untrusted bytes (e.g. the service's
    /// cache snapshots) and must not panic on a bad index.
    pub fn gate_id(&self, index: usize) -> Option<GateId> {
        (index < self.gates.len()).then_some(GateId(index as u16))
    }

    /// Iterates over the buffer library `B`.
    pub fn buffers(&self) -> impl Iterator<Item = GateId> + '_ {
        self.buffers.iter().copied()
    }

    /// The register model `r` (also used for relay stations).
    #[inline]
    pub fn register(&self) -> GateId {
        self.register
    }

    /// The transparent-latch model.
    #[inline]
    pub fn latch(&self) -> GateId {
        self.latch
    }

    /// The MCFIFO model `f`.
    #[inline]
    pub fn mcfifo(&self) -> GateId {
        self.mcfifo
    }

    /// Number of gate models in the library.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the library holds no gates (never true for built
    /// libraries, which require at least a buffer and a register).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// `min R(B ∪ {r})` — the smallest driver resistance over the buffer
    /// library and the register. Used by the admissible feasibility bound
    /// in RBP step 5 (`d' ≤ T_φ − K(r) − min R · c'`).
    pub fn min_driver_res(&self) -> Resistance {
        let mut m = self.gates[self.register.index()].driver_res();
        for &b in &self.buffers {
            m = m.min(self.gates[b.index()].driver_res());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(r: f64, c: f64, k: f64) -> Gate {
        Gate::new(
            GateKind::Buffer,
            Resistance::from_ohms(r),
            Capacitance::from_ff(c),
            Time::from_ps(k),
            Time::ZERO,
        )
    }

    #[test]
    fn sequential_classification() {
        assert!(!GateKind::Buffer.is_sequential());
        assert!(GateKind::Register.is_sequential());
        assert!(GateKind::Latch.is_sequential());
        assert!(GateKind::McFifo.is_sequential());
    }

    #[test]
    fn gate_delay_formula() {
        let g = buf(180.0, 23.4, 36.4);
        let d = g.delay(Capacitance::from_ff(100.0));
        assert!((d.ps() - (18.0 + 36.4)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no setup")]
    fn buffer_with_setup_rejected() {
        let _ = Gate::new(
            GateKind::Buffer,
            Resistance::from_ohms(1.0),
            Capacitance::from_ff(1.0),
            Time::ZERO,
            Time::from_ps(1.0),
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resistance_rejected() {
        let _ = buf(0.0, 1.0, 0.0);
    }

    #[test]
    fn paper_library_contents() {
        let lib = GateLibrary::paper_library();
        assert_eq!(lib.len(), 4);
        assert!(!lib.is_empty());
        assert_eq!(lib.buffers().count(), 1);
        let b = lib.buffers().next().unwrap();
        let reg = lib.gate(lib.register());
        let bufg = lib.gate(b);
        // Register and MCFIFO share the buffer's delay characteristics.
        assert_eq!(reg.driver_res(), bufg.driver_res());
        assert_eq!(reg.input_cap(), bufg.input_cap());
        assert_eq!(reg.intrinsic(), bufg.intrinsic());
        assert_eq!(lib.gate(lib.mcfifo()).driver_res(), bufg.driver_res());
        assert_eq!(reg.setup(), Time::from_ps(2.0));
        assert_eq!(lib.name(b), "buf100x");
    }

    #[test]
    fn min_driver_res_over_buffers_and_register() {
        let lib = GateLibrary::builder()
            .buffer("weak", buf(500.0, 5.0, 10.0))
            .buffer("strong", buf(90.0, 40.0, 30.0))
            .register(
                "reg",
                Gate::new(
                    GateKind::Register,
                    Resistance::from_ohms(180.0),
                    Capacitance::from_ff(23.4),
                    Time::from_ps(36.4),
                    Time::from_ps(2.0),
                ),
            )
            .build();
        assert_eq!(lib.min_driver_res(), Resistance::from_ohms(90.0));
        // Defaults for latch and MCFIFO were cloned from the register.
        assert_eq!(lib.gate(lib.mcfifo()).kind(), GateKind::McFifo);
        assert_eq!(
            lib.gate(lib.latch()).driver_res(),
            Resistance::from_ohms(180.0)
        );
        assert_eq!(lib.len(), 5);
    }

    #[test]
    #[should_panic(expected = "buffer library may not be empty")]
    fn empty_buffer_library_rejected() {
        let _ = GateLibrary::builder()
            .register(
                "reg",
                Gate::new(
                    GateKind::Register,
                    Resistance::from_ohms(180.0),
                    Capacitance::from_ff(23.4),
                    Time::from_ps(36.4),
                    Time::from_ps(2.0),
                ),
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "register model is required")]
    fn missing_register_rejected() {
        let _ = GateLibrary::builder()
            .buffer("b", buf(1.0, 1.0, 0.0))
            .build();
    }

    #[test]
    #[should_panic(expected = "expected a buffer")]
    fn kind_mismatch_rejected() {
        let reg = Gate::new(
            GateKind::Register,
            Resistance::from_ohms(1.0),
            Capacitance::from_ff(1.0),
            Time::ZERO,
            Time::ZERO,
        );
        let _ = GateLibrary::builder().buffer("b", reg);
    }
}
