//! Crash-consistent cache snapshots (DESIGN.md §13).
//!
//! The result cache is the service's only state worth keeping: every
//! entry cost a solve, and warm starts need the full traced plan of a
//! prior solve. This module persists it to `<state>/cache.snap` in an
//! **append-friendly checksummed log**:
//!
//! ```text
//! file   := magic record*            magic  = b"CRSNAP1\n"
//! record := len:u32le payload[len] fnv64:u64le
//! ```
//!
//! Each payload encodes one cache entry (keys, the parsed scenario,
//! and the full solve — report bytes, counts, per-net results, and
//! warm-start footprints) in a hand-rolled length-prefixed binary
//! format; the workspace ships no serialization dependency on purpose.
//! The FNV-1a 64 checksum is the same [`CanonHasher`] the canonical
//! scenario keys use.
//!
//! **Durability discipline.** Live inserts are appended (one record
//! per insert, fsync'd), so a `kill -9` loses at most the torn tail
//! record, which fails its checksum and is dropped on replay. Full
//! rewrites (startup compaction and graceful shutdown) go through a
//! temp file + atomic rename, so a crash mid-rewrite leaves the old
//! snapshot intact. A failed append is rolled back by truncating to
//! the pre-append length, keeping the log parseable.
//!
//! **Trust discipline.** Snapshot bytes are *input*, not state: the
//! loader is panic-free (every read bounds-checked, every count
//! capped), and a decoded entry is admitted only after the same
//! structural re-verification a hash hit gets — recomputed canonical
//! keys must match the stored ones, the traced plan must satisfy the
//! planner's invariants (valid gate ids, in-grid points, footprints
//! only on undegraded successes), the stored counts must equal counts
//! recomputed from the plan, and the stored report bytes must equal a
//! re-render of the decoded plan. A record that fails any check — torn
//! tail, bit flip, stale version, hand-forged entry — is silently
//! dropped and counted, never served.

use crate::cache::Solved;
use crate::keys::{base_key, scenario_key};
use clockroute_cli::report;
use clockroute_cli::scenario::Scenario;
use clockroute_core::canon::CanonHasher;
use clockroute_core::failpoint::{self, FailAction};
use clockroute_core::lockcheck::{LockRank, OrderedMutex};
use clockroute_core::{RouteError, RoutedPath, SearchStage, TouchedRegion};
use clockroute_elmore::{GateLibrary, Technology};
use clockroute_geom::units::{CapPerLength, Length, ResPerLength, Time};
use clockroute_geom::{BlockKind, Floorplan, Point, Rect};
use clockroute_grid::EdgeCapacities;
use clockroute_plan::{Degradation, NetKind, NetResult, NetSpec, TracedPlan};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File magic; also the format version (bump on layout changes — old
/// files then fail the magic check and are recovered as empty).
const MAGIC: &[u8; 8] = b"CRSNAP1\n";
/// Per-entry payload version, checked before any field is trusted.
/// v2 added the scenario's edge-capacity section.
const ENTRY_VERSION: u8 = 2;
/// Upper bound on one record; anything larger is treated as a torn or
/// corrupt length prefix and ends replay.
const MAX_RECORD: usize = 64 << 20;

/// The snapshot file inside a `--state` directory.
pub fn snapshot_file(dir: &Path) -> PathBuf {
    dir.join("cache.snap")
}

/// What a [`load`] recovered and what it refused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Entries that decoded and passed full re-verification.
    pub recovered: usize,
    /// Records dropped: torn, checksum-mismatched, stale-versioned,
    /// undecodable, or failing structural verification.
    pub dropped: usize,
}

/// One recovered cache entry, verification already passed.
#[derive(Debug, Clone)]
pub struct RecoveredEntry {
    /// Canonical scenario key (recomputed == stored).
    pub key: u64,
    /// Blockage-independent base key (recomputed == stored).
    pub base: u64,
    /// The decoded scenario.
    pub scenario: Scenario,
    /// The decoded solve.
    pub solved: Solved,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_u32(out, p.x);
    put_u32(out, p.y);
}

fn put_opt<T>(out: &mut Vec<u8>, v: Option<T>, f: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        Some(v) => {
            out.push(1);
            f(out, v);
        }
        None => out.push(0),
    }
}

fn block_kind_tag(k: BlockKind) -> u8 {
    match k {
        BlockKind::Hard => 0,
        BlockKind::Obstacle => 1,
        BlockKind::WiringOnly => 2,
        BlockKind::RegisterKeepout => 3,
    }
}

fn stage_tag(s: SearchStage) -> u8 {
    match s {
        SearchStage::FastPath => 0,
        SearchStage::Rbp => 1,
        SearchStage::Gals => 2,
        SearchStage::Latch => 3,
        SearchStage::Flow => 4,
    }
}

fn put_error(out: &mut Vec<u8>, e: &RouteError) {
    match e {
        RouteError::SourceOffGrid(p) => {
            out.push(0);
            put_point(out, *p);
        }
        RouteError::SinkOffGrid(p) => {
            out.push(1);
            put_point(out, *p);
        }
        RouteError::SameSourceSink(p) => {
            out.push(2);
            put_point(out, *p);
        }
        RouteError::NoFeasibleRoute => out.push(3),
        RouteError::InvalidPeriod => out.push(4),
        RouteError::UnspecifiedSource => out.push(5),
        RouteError::UnspecifiedSink => out.push(6),
        RouteError::BudgetExceeded {
            candidates,
            elapsed,
            stage,
        } => {
            out.push(7);
            put_u64(out, *candidates);
            put_u64(out, elapsed.as_secs());
            put_u32(out, elapsed.subsec_nanos());
            out.push(stage_tag(*stage));
        }
        RouteError::SearchPanicked(msg) => {
            out.push(8);
            put_str(out, msg);
        }
    }
}

fn put_scenario(out: &mut Vec<u8>, s: &Scenario) {
    put_f64(out, s.floorplan.die_width().mm());
    put_f64(out, s.floorplan.die_height().mm());
    put_u32(out, s.grid.0);
    put_u32(out, s.grid.1);
    put_f64(out, s.tech.unit_res().ohms_per_um());
    put_f64(out, s.tech.unit_cap().ff_per_um());
    out.push(u8::from(s.reserve));
    match s.capacities.default_cap() {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_u32(out, c);
        }
    }
    put_u32(out, s.capacities.override_count() as u32);
    for ((ax, ay, bx, by), c) in s.capacities.overrides() {
        put_u32(out, ax);
        put_u32(out, ay);
        put_u32(out, bx);
        put_u32(out, by);
        put_u32(out, c);
    }
    put_u32(out, s.floorplan.blocks().len() as u32);
    for b in s.floorplan.blocks() {
        out.push(block_kind_tag(b.kind));
        put_point(out, b.rect.lo());
        put_point(out, b.rect.hi());
    }
    put_u32(out, s.nets.len() as u32);
    for net in &s.nets {
        put_str(out, &net.name);
        put_point(out, net.source);
        put_point(out, net.sink);
        match net.kind {
            NetKind::Combinational => out.push(0),
            NetKind::Registered { period } => {
                out.push(1);
                put_f64(out, period.ps());
            }
            NetKind::Gals { t_s, t_t } => {
                out.push(2);
                put_f64(out, t_s.ps());
                put_f64(out, t_t.ps());
            }
        }
    }
}

fn put_result(out: &mut Vec<u8>, r: &NetResult) {
    put_str(out, &r.name);
    put_opt(out, r.path.as_ref(), |out, path| {
        put_u32(out, path.points().len() as u32);
        for &p in path.points() {
            put_point(out, p);
        }
        for &label in path.labels() {
            // Gate index + 1; 0 marks "no gate here".
            put_u32(out, label.map_or(0, |g| g.index() as u32 + 1));
        }
    });
    put_opt(out, r.latency, |out, t| put_f64(out, t.ps()));
    put_opt(out, r.cycles, |out, c| put_u64(out, c as u64));
    put_opt(out, r.wirelength, |out, l| put_f64(out, l.um()));
    put_opt(out, r.error.as_ref(), put_error);
    out.push(match r.degradation {
        Degradation::None => 0,
        Degradation::CoarseGrid => 1,
        Degradation::Unbuffered => 2,
    });
}

/// Encodes one cache entry into a record payload.
pub fn encode_entry(key: u64, base: u64, scenario: &Scenario, solved: &Solved) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + solved.report.len());
    out.push(ENTRY_VERSION);
    put_u64(&mut out, key);
    put_u64(&mut out, base);
    put_scenario(&mut out, scenario);
    put_str(&mut out, &solved.report);
    put_u64(&mut out, solved.routed as u64);
    put_u64(&mut out, solved.failed as u64);
    put_u64(&mut out, solved.degraded as u64);
    let results = solved.traced.plan().results();
    put_u32(&mut out, results.len() as u32);
    for r in results {
        put_result(&mut out, r);
    }
    let footprints = solved.traced.footprints();
    put_u32(&mut out, footprints.len() as u32);
    for fp in footprints {
        put_opt(&mut out, fp.as_ref(), |out, region| {
            put_u32(out, region.min_x);
            put_u32(out, region.min_y);
            put_u32(out, region.max_x);
            put_u32(out, region.max_y);
        });
    }
    out
}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = CanonHasher::new();
    h.write_bytes(payload);
    h.finish()
}

// ---------------------------------------------------------------------
// Decoding — panic-free, bounds-checked, allocation-capped
// ---------------------------------------------------------------------

/// A bounds-checked reader over one record payload. Every accessor
/// returns `Err(())` past the end; the error carries no detail because
/// the only response to a bad record is to drop it.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type Decode<T> = Result<T, ()>;

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Decode<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(())?;
        let slice = self.bytes.get(self.pos..end).ok_or(())?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Decode<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Decode<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Decode<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Decode<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A finite f64 — NaN/inf in any numeric field marks corruption.
    fn finite(&mut self) -> Decode<f64> {
        let v = self.f64()?;
        v.is_finite().then_some(v).ok_or(())
    }

    fn str(&mut self) -> Decode<String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(());
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ())
    }

    fn point(&mut self) -> Decode<Point> {
        Ok(Point::new(self.u32()?, self.u32()?))
    }

    /// A count whose elements occupy at least `min_elem` bytes each —
    /// caps `Vec` pre-allocation at what the payload could possibly
    /// hold, so a forged count cannot OOM the loader.
    fn count(&mut self, min_elem: usize) -> Decode<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_elem.max(1) {
            return Err(());
        }
        Ok(n)
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> Decode<T>) -> Decode<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(()),
        }
    }

    fn done(&self) -> Decode<()> {
        (self.remaining() == 0).then_some(()).ok_or(())
    }
}

fn decode_error(c: &mut Cursor<'_>) -> Decode<RouteError> {
    Ok(match c.u8()? {
        0 => RouteError::SourceOffGrid(c.point()?),
        1 => RouteError::SinkOffGrid(c.point()?),
        2 => RouteError::SameSourceSink(c.point()?),
        3 => RouteError::NoFeasibleRoute,
        4 => RouteError::InvalidPeriod,
        5 => RouteError::UnspecifiedSource,
        6 => RouteError::UnspecifiedSink,
        7 => {
            let candidates = c.u64()?;
            let secs = c.u64()?;
            let nanos = c.u32()?;
            if nanos >= 1_000_000_000 {
                return Err(());
            }
            let stage = match c.u8()? {
                0 => SearchStage::FastPath,
                1 => SearchStage::Rbp,
                2 => SearchStage::Gals,
                3 => SearchStage::Latch,
                4 => SearchStage::Flow,
                _ => return Err(()),
            };
            RouteError::BudgetExceeded {
                candidates,
                elapsed: Duration::new(secs, nanos),
                stage,
            }
        }
        8 => RouteError::SearchPanicked(c.str()?),
        _ => return Err(()),
    })
}

/// Decodes the scenario section and rebuilds a [`Scenario`], enforcing
/// the same semantic bounds the `.cr` parser does (positive finite die
/// and tech values, non-zero grid, in-grid terminals and blocks) so the
/// constructors' own assertions can never fire on snapshot bytes.
fn decode_scenario(c: &mut Cursor<'_>) -> Decode<Scenario> {
    let die_w = c.finite()?;
    let die_h = c.finite()?;
    if die_w <= 0.0 || die_h <= 0.0 {
        return Err(());
    }
    let grid = (c.u32()?, c.u32()?);
    if grid.0 == 0 || grid.1 == 0 {
        return Err(());
    }
    let r = c.finite()?;
    let cap = c.finite()?;
    if r <= 0.0 || cap <= 0.0 {
        return Err(());
    }
    let reserve = match c.u8()? {
        0 => false,
        1 => true,
        _ => return Err(()),
    };
    let in_grid = |p: Point| p.x < grid.0 && p.y < grid.1;
    let mut capacities = EdgeCapacities::new();
    match c.u8()? {
        0 => {}
        1 => capacities.set_default(c.u32()?),
        _ => return Err(()),
    }
    let ncaps = c.count(20)?;
    for _ in 0..ncaps {
        let a = c.point()?;
        let b = c.point()?;
        if !in_grid(a) || !in_grid(b) || !a.is_adjacent(b) {
            return Err(());
        }
        capacities.set_edge(a, b, c.u32()?);
    }
    let mut floorplan = Floorplan::new(Length::from_mm(die_w), Length::from_mm(die_h));
    let nblocks = c.count(13)?;
    for _ in 0..nblocks {
        let kind = match c.u8()? {
            0 => BlockKind::Hard,
            1 => BlockKind::Obstacle,
            2 => BlockKind::WiringOnly,
            3 => BlockKind::RegisterKeepout,
            _ => return Err(()),
        };
        let lo = c.point()?;
        let hi = c.point()?;
        if !in_grid(lo) || !in_grid(hi) || lo.x > hi.x || lo.y > hi.y {
            return Err(());
        }
        floorplan.add_block(Rect::new(lo, hi), kind);
    }
    let nnets = c.count(18)?;
    let mut nets = Vec::with_capacity(nnets);
    for _ in 0..nnets {
        let name = c.str()?;
        if name.is_empty() {
            return Err(());
        }
        let source = c.point()?;
        let sink = c.point()?;
        if !in_grid(source) || !in_grid(sink) {
            return Err(());
        }
        let kind = match c.u8()? {
            0 => NetKind::Combinational,
            1 => {
                let period = c.finite()?;
                if period <= 0.0 {
                    return Err(());
                }
                NetKind::Registered {
                    period: Time::from_ps(period),
                }
            }
            2 => {
                let (t_s, t_t) = (c.finite()?, c.finite()?);
                if t_s <= 0.0 || t_t <= 0.0 {
                    return Err(());
                }
                NetKind::Gals {
                    t_s: Time::from_ps(t_s),
                    t_t: Time::from_ps(t_t),
                }
            }
            _ => return Err(()),
        };
        nets.push(NetSpec {
            name,
            source,
            sink,
            kind,
        });
    }
    Ok(Scenario {
        floorplan,
        grid,
        tech: Technology::new(
            ResPerLength::from_ohms_per_um(r),
            CapPerLength::from_ff_per_um(cap),
        ),
        nets,
        reserve,
        capacities,
    })
}

fn decode_result(c: &mut Cursor<'_>, grid: (u32, u32), lib: &GateLibrary) -> Decode<NetResult> {
    let name = c.str()?;
    let path = c.opt(|c| {
        let npoints = c.count(12)?;
        if npoints == 0 {
            return Err(());
        }
        let mut points = Vec::with_capacity(npoints);
        for _ in 0..npoints {
            let p = c.point()?;
            if p.x >= grid.0 || p.y >= grid.1 {
                return Err(());
            }
            points.push(p);
        }
        let mut labels = Vec::with_capacity(npoints);
        for _ in 0..npoints {
            labels.push(match c.u32()? {
                0 => None,
                raw => Some(lib.gate_id(raw as usize - 1).ok_or(())?),
            });
        }
        // `RoutedPath::new` panics on these; check first so the
        // decoder keeps its no-panic guarantee.
        if labels[0].is_none() || labels[npoints - 1].is_none() {
            return Err(());
        }
        Ok(RoutedPath::new(points, labels, lib))
    })?;
    let latency = c.opt(|c| Ok(Time::from_ps(c.finite()?)))?;
    let cycles = c.opt(|c| {
        let v = c.u64()?;
        usize::try_from(v).map_err(|_| ())
    })?;
    let wirelength = c.opt(|c| Ok(Length::from_um(c.finite()?)))?;
    let error = c.opt(decode_error)?;
    let degradation = match c.u8()? {
        0 => Degradation::None,
        1 => Degradation::CoarseGrid,
        2 => Degradation::Unbuffered,
        _ => return Err(()),
    };
    Ok(NetResult {
        name,
        path,
        latency,
        cycles,
        wirelength,
        error,
        degradation,
    })
}

/// Decodes and **fully re-verifies** one record payload. `Err` means
/// "drop the record"; there is deliberately no partial acceptance.
fn decode_entry(payload: &[u8]) -> Decode<RecoveredEntry> {
    let lib = GateLibrary::paper_library();
    let mut c = Cursor::new(payload);
    if c.u8()? != ENTRY_VERSION {
        return Err(());
    }
    let key = c.u64()?;
    let base = c.u64()?;
    let scenario = decode_scenario(&mut c)?;
    let report = c.str()?;
    let routed = usize::try_from(c.u64()?).map_err(|_| ())?;
    let failed = usize::try_from(c.u64()?).map_err(|_| ())?;
    let degraded = usize::try_from(c.u64()?).map_err(|_| ())?;
    let nresults = c.count(8)?;
    if nresults != scenario.nets.len() {
        return Err(());
    }
    let mut results = Vec::with_capacity(nresults);
    for i in 0..nresults {
        let r = decode_result(&mut c, scenario.grid, &lib)?;
        if r.name != scenario.nets[i].name {
            return Err(());
        }
        results.push(r);
    }
    let nfootprints = c.count(1)?;
    if nfootprints != nresults {
        return Err(());
    }
    let mut footprints = Vec::with_capacity(nfootprints);
    for _ in 0..nfootprints {
        footprints.push(c.opt(|c| {
            let region = TouchedRegion {
                min_x: c.u32()?,
                min_y: c.u32()?,
                max_x: c.u32()?,
                max_y: c.u32()?,
            };
            if region.min_x > region.max_x || region.min_y > region.max_y {
                return Err(());
            }
            Ok(region)
        })?);
    }
    c.done()?;

    // Structural re-verification, exactly the stance a hash hit takes:
    // the checksum is a fingerprint, not a proof.
    let traced = TracedPlan::from_parts(results, footprints).map_err(|_| ())?;
    let plan = traced.plan();
    if scenario_key(&scenario) != key || base_key(&scenario) != base {
        return Err(());
    }
    if plan.routed().count() != routed
        || plan.failed().count() != failed
        || plan.degraded().count() != degraded
    {
        return Err(());
    }
    if report::plan_report(plan) != report {
        return Err(());
    }
    Ok(RecoveredEntry {
        key,
        base,
        scenario,
        solved: Solved {
            traced,
            report,
            routed,
            failed,
            degraded,
        },
    })
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

fn persist_fault(site: &str) -> io::Result<()> {
    match failpoint::hit(site) {
        Some(FailAction::IoError | FailAction::ShortIo) => {
            Err(io::Error::other(format!("injected fault at {site}")))
        }
        Some(FailAction::Panic) => panic!("failpoint {site}: forced panic"),
        _ => Ok(()),
    }
}

fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len() + 12);
    put_u32(&mut framed, payload.len() as u32);
    framed.extend_from_slice(payload);
    put_u64(&mut framed, checksum(payload));
    framed
}

/// An open snapshot log, appended to on every cache insert.
#[derive(Debug)]
pub struct SnapshotLog {
    file: File,
    /// Length of the last known-good prefix; failed appends roll back
    /// to it so one bad write cannot desynchronize the whole log.
    len: u64,
}

impl SnapshotLog {
    /// Opens (creating if needed) the log in `dir` for appending.
    /// The caller is expected to have compacted first ([`rewrite`]).
    ///
    /// # Errors
    ///
    /// Directory creation or open failures.
    pub fn open(dir: &Path) -> io::Result<SnapshotLog> {
        fs::create_dir_all(dir)?;
        let path = snapshot_file(dir);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut len = file.metadata()?.len();
        if len == 0 {
            persist_fault("serve::persist")?;
            file.write_all(MAGIC)?;
            file.flush()?;
            len = MAGIC.len() as u64;
        }
        Ok(SnapshotLog { file, len })
    }

    /// Appends one entry record and syncs it to disk. On any failure
    /// the file is truncated back to its pre-append length.
    ///
    /// # Errors
    ///
    /// The write/sync failure (injected faults included). After an
    /// `Err` the log is still usable — the bad suffix was rolled back.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let result = self.try_append(payload);
        if result.is_err() {
            // Roll back the torn suffix; if even that fails the replay
            // checksum still protects readers, so ignore the error.
            let _ = self.file.set_len(self.len);
        } else {
            self.len += frame_record(payload).len() as u64;
        }
        result
    }

    fn try_append(&mut self, payload: &[u8]) -> io::Result<()> {
        let framed = frame_record(payload);
        match failpoint::hit("serve::persist") {
            // A torn append: half the record reaches the disk. Replay
            // must drop it via the checksum (and `append` rolls the
            // suffix back so later records stay framed).
            Some(FailAction::ShortIo) => {
                self.file.write_all(&framed[..framed.len() / 2])?;
                let _ = self.file.flush();
                return Err(io::Error::other("injected short write at serve::persist"));
            }
            Some(FailAction::IoError) => {
                return Err(io::Error::other("injected fault at serve::persist"));
            }
            Some(FailAction::Panic) => panic!("failpoint serve::persist: forced panic"),
            _ => {}
        }
        self.file.write_all(&framed)?;
        self.file.flush()?;
        persist_fault("serve::fsync")?;
        self.file.sync_data()
    }
}

/// The service's shared handle on its (optional) snapshot log: an
/// `Option<SnapshotLog>` behind the one [`LockRank::Persist`] lock in
/// the workspace. Workers append through it concurrently; `None` means
/// the service runs without persistence (by configuration or after an
/// unrecoverable open failure).
///
/// Persist ranks above the shard locks — a leader appends its record
/// while its `SolveSlot` claim is held but after every shard guard has
/// dropped — and below telemetry, so error counters can be bumped with
/// the slot released.
#[derive(Debug)]
pub struct LogSlot {
    slot: OrderedMutex<Option<SnapshotLog>>,
}

impl LogSlot {
    /// Wraps an opened log (or `None` for a persistence-free service).
    pub fn new(log: Option<SnapshotLog>) -> LogSlot {
        LogSlot {
            slot: OrderedMutex::new(LockRank::Persist, "persist.log", log),
        }
    }

    /// `true` when a snapshot log is live (persistence configured and
    /// healthy).
    pub fn is_live(&self) -> bool {
        self.slot.lock().is_some()
    }

    /// Swaps in a freshly opened log (after compaction renamed the old
    /// file away, so later appends land in the new inode).
    pub fn replace(&self, log: SnapshotLog) {
        *self.slot.lock() = Some(log);
    }

    /// Appends one encoded entry if a log is live; a slot without a
    /// log accepts silently (running without persistence is a counted,
    /// non-fatal mode — the caller only hears about real I/O errors).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotLog::append`] failures; the log has already
    /// rolled its torn tail back when this returns `Err`.
    pub fn append(&self, payload: &[u8]) -> io::Result<()> {
        match self.slot.lock().as_mut() {
            Some(log) => log.append(payload),
            None => Ok(()),
        }
    }
}

/// Atomically replaces the snapshot in `dir` with exactly `entries`
/// (already-encoded payloads, in replay order: least recent first).
/// Written to a temp file, fsync'd, then renamed over `cache.snap`.
///
/// # Errors
///
/// I/O failures anywhere in the write-sync-rename sequence; the old
/// snapshot is untouched in that case.
pub fn rewrite(dir: &Path, entries: &[Vec<u8>]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join("cache.snap.tmp");
    {
        persist_fault("serve::persist")?;
        let mut file = File::create(&tmp)?;
        file.write_all(MAGIC)?;
        for payload in entries {
            file.write_all(&frame_record(payload))?;
        }
        file.flush()?;
        persist_fault("serve::fsync")?;
        file.sync_all()?;
    }
    fs::rename(&tmp, snapshot_file(dir))?;
    // Persist the rename itself (directory metadata) where possible;
    // best-effort — some filesystems refuse to sync directories.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Replays the snapshot in `dir`, returning every record that passes
/// decode + re-verification, in file order (least recent first).
///
/// Corruption is *not* an error: torn tails, bit flips, bad lengths
/// and failed verifications are counted in [`LoadStats::dropped`] and
/// skipped. A missing file is an empty, zero-drop load.
///
/// # Errors
///
/// Only real I/O failures reading an existing file.
pub fn load(dir: &Path) -> io::Result<(Vec<RecoveredEntry>, LoadStats)> {
    let path = snapshot_file(dir);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok((Vec::new(), LoadStats::default()))
        }
        Err(e) => return Err(e),
    };
    let mut stats = LoadStats::default();
    let mut entries = Vec::new();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        // Stale format or truncated header: recover nothing, but count
        // the file as one dropped record so operators can see it.
        if !bytes.is_empty() {
            stats.dropped += 1;
        }
        return Ok((entries, stats));
    }
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        // Length prefix.
        let Some(len_bytes) = bytes.get(pos..pos + 4) else {
            stats.dropped += 1; // torn tail inside the prefix
            break;
        };
        let len =
            u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
        if len > MAX_RECORD || bytes.len() - (pos + 4) < len + 8 {
            // Implausible or past-EOF length: a torn tail or a flipped
            // prefix bit. Framing is lost; stop here.
            stats.dropped += 1;
            break;
        }
        let payload = &bytes[pos + 4..pos + 4 + len];
        let sum_bytes = &bytes[pos + 4 + len..pos + 12 + len];
        let stored = u64::from_le_bytes([
            sum_bytes[0],
            sum_bytes[1],
            sum_bytes[2],
            sum_bytes[3],
            sum_bytes[4],
            sum_bytes[5],
            sum_bytes[6],
            sum_bytes[7],
        ]);
        pos += 12 + len;
        if checksum(payload) != stored {
            // Payload corruption with intact framing: skip just this
            // record and keep replaying.
            stats.dropped += 1;
            continue;
        }
        match decode_entry(payload) {
            Ok(entry) => {
                stats.recovered += 1;
                entries.push(entry);
            }
            Err(()) => stats.dropped += 1,
        }
    }
    Ok((entries, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_cli::scenario::parse;
    use clockroute_grid::GridGraph;
    use clockroute_plan::Planner;

    fn scenario() -> Scenario {
        parse(
            "die 10mm 10mm\ngrid 16 16\nblock hard 5 5 7 7\n\
             net comb name=a src=0,0 dst=15,15\n\
             net reg name=b src=0,8 dst=15,8 period=2000\n",
        )
        .unwrap()
    }

    fn solve(s: &Scenario) -> Solved {
        let (gw, gh) = s.grid;
        let graph = GridGraph::from_floorplan(&s.floorplan, gw, gh);
        let planner =
            Planner::new(graph, s.tech, GateLibrary::paper_library()).reserve_routes(s.reserve);
        let traced = planner.plan_traced(&s.nets);
        let plan = traced.plan();
        Solved {
            report: report::plan_report(plan),
            routed: plan.routed().count(),
            failed: plan.failed().count(),
            degraded: plan.degraded().count(),
            traced,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crsnap-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entry_round_trips_bit_exactly() {
        let s = scenario();
        let solved = solve(&s);
        let (key, base) = (scenario_key(&s), base_key(&s));
        let payload = encode_entry(key, base, &s, &solved);
        let entry = decode_entry(&payload).expect("round trip");
        assert_eq!(entry.key, key);
        assert_eq!(entry.base, base);
        assert_eq!(entry.solved.report, solved.report);
        assert_eq!(entry.solved.traced, solved.traced);
        assert_eq!(scenario_key(&entry.scenario), key);
    }

    #[test]
    fn version_bump_drops_the_record() {
        let s = scenario();
        let solved = solve(&s);
        let mut payload = encode_entry(scenario_key(&s), base_key(&s), &s, &solved);
        payload[0] = ENTRY_VERSION + 1;
        assert!(decode_entry(&payload).is_err());
    }

    #[test]
    fn forged_key_fails_reverification() {
        let s = scenario();
        let solved = solve(&s);
        let mut payload = encode_entry(scenario_key(&s), base_key(&s), &s, &solved);
        // Flip a key bit but leave everything else intact: the FNV
        // checksum at the file layer would pass (we bypass it here),
        // yet the recomputed canonical key must still catch it.
        payload[1] ^= 0x01;
        assert!(decode_entry(&payload).is_err());
    }

    #[test]
    fn log_append_then_load_round_trips() {
        let dir = tmp_dir("append");
        let s = scenario();
        let solved = solve(&s);
        let payload = encode_entry(scenario_key(&s), base_key(&s), &s, &solved);
        let mut log = SnapshotLog::open(&dir).unwrap();
        log.append(&payload).unwrap();
        log.append(&payload).unwrap();
        let (entries, stats) = load(&dir).unwrap();
        assert_eq!(
            stats,
            LoadStats {
                recovered: 2,
                dropped: 0
            }
        );
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].solved.report, solved.report);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_earlier_records_survive() {
        let dir = tmp_dir("torn");
        let s = scenario();
        let solved = solve(&s);
        let payload = encode_entry(scenario_key(&s), base_key(&s), &s, &solved);
        let mut log = SnapshotLog::open(&dir).unwrap();
        log.append(&payload).unwrap();
        drop(log);
        // Simulate kill -9 mid-append: half a second record.
        let framed = frame_record(&payload);
        let mut bytes = fs::read(snapshot_file(&dir)).unwrap();
        bytes.extend_from_slice(&framed[..framed.len() / 2]);
        fs::write(snapshot_file(&dir), &bytes).unwrap();
        let (entries, stats) = load(&dir).unwrap();
        assert_eq!(
            stats,
            LoadStats {
                recovered: 1,
                dropped: 1
            }
        );
        assert_eq!(entries.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_rolls_back_and_log_stays_usable() {
        let dir = tmp_dir("rollback");
        let s = scenario();
        let solved = solve(&s);
        let payload = encode_entry(scenario_key(&s), base_key(&s), &s, &solved);
        let mut log = SnapshotLog::open(&dir).unwrap();
        log.append(&payload).unwrap();
        failpoint::disarm_all();
        failpoint::arm("serve::persist", FailAction::ShortIo, 1);
        assert!(log.append(&payload).is_err(), "fault injected");
        failpoint::disarm_all();
        // The torn suffix was truncated away; the next append lands on
        // a clean boundary and everything replays.
        log.append(&payload).unwrap();
        let (entries, stats) = load(&dir).unwrap();
        assert_eq!(
            stats,
            LoadStats {
                recovered: 2,
                dropped: 0
            }
        );
        assert_eq!(entries.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_is_atomic_under_injected_faults() {
        let dir = tmp_dir("rewrite");
        let s = scenario();
        let solved = solve(&s);
        let payload = encode_entry(scenario_key(&s), base_key(&s), &s, &solved);
        rewrite(&dir, std::slice::from_ref(&payload)).unwrap();
        failpoint::disarm_all();
        failpoint::arm("serve::persist", FailAction::IoError, 1);
        assert!(rewrite(&dir, &[payload.clone(), payload.clone()]).is_err());
        failpoint::disarm_all();
        // The failed rewrite never touched the live snapshot.
        let (entries, stats) = load(&dir).unwrap();
        assert_eq!(
            stats,
            LoadStats {
                recovered: 1,
                dropped: 0
            }
        );
        assert_eq!(entries.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_state_is_an_empty_load() {
        let dir = tmp_dir("missing");
        let (entries, stats) = load(&dir).unwrap();
        assert!(entries.is_empty());
        assert_eq!(stats, LoadStats::default());
    }

    #[test]
    fn stale_magic_recovers_nothing_without_panicking() {
        let dir = tmp_dir("magic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(snapshot_file(&dir), b"CRSNAP0\nwhatever").unwrap();
        let (entries, stats) = load(&dir).unwrap();
        assert!(entries.is_empty());
        assert_eq!(stats.dropped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The ISSUE's property test: flip every byte of a valid snapshot
    /// (and truncate at every offset) — the loader must never panic and
    /// never serve a record that fails re-verification. Exhaustive, not
    /// sampled: snapshot files are small enough to afford it.
    #[test]
    fn every_single_byte_flip_and_truncation_is_survived() {
        let dir = tmp_dir("fuzz");
        let s = scenario();
        let solved = solve(&s);
        let payload = encode_entry(scenario_key(&s), base_key(&s), &s, &solved);
        rewrite(&dir, &[payload]).unwrap();
        let pristine = fs::read(snapshot_file(&dir)).unwrap();
        let reference = load(&dir).unwrap().0;
        assert_eq!(reference.len(), 1);
        let expected_report = &reference[0].solved.report;

        for i in 0..pristine.len() {
            // Truncation at every prefix length.
            fs::write(snapshot_file(&dir), &pristine[..i]).unwrap();
            let (entries, _) = load(&dir).unwrap();
            for e in &entries {
                assert_eq!(&e.solved.report, expected_report);
            }
            // One flipped bit per byte position.
            let mut mutated = pristine.clone();
            mutated[i] ^= 0x10;
            fs::write(snapshot_file(&dir), &mutated).unwrap();
            let (entries, _) = load(&dir).unwrap();
            for e in &entries {
                // Anything recovered must still verify exactly.
                assert_eq!(scenario_key(&e.scenario), e.key, "flip at byte {i}");
                assert_eq!(&e.solved.report, expected_report, "flip at byte {i}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
