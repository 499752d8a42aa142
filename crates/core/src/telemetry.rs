//! Structured search telemetry: counters, gauges, spans and events.
//!
//! Production routing flows are tuned off per-net counters — pops,
//! prunes, arena growth, phase timings — so every search and the
//! multi-net planner report what they did through a [`Telemetry`] sink.
//! The design splits the API along a determinism boundary:
//!
//! * **Counters and gauges** are pure functions of the search inputs
//!   (pops, pushes, prunes, promotions, arena bytes, budget charges).
//!   They are replayed from per-net [`TelemetryShard`]s in commit
//!   order, so an aggregated [`MetricsRecorder`] produces
//!   **byte-identical JSON for every `--jobs` value** — asserted by the
//!   CLI end-to-end tests.
//! * **Spans and events** carry wall-clock time and scheduling detail
//!   (rounds, conflicts, re-routes). They are trace-only: useful for
//!   reading one run, never included in the deterministic metrics JSON.
//!
//! The default sink is nothing at all: specs hold a
//! [`TelemetryHandle`], a `Copy` option-of-reference whose methods
//! compile to a branch on `None` — zero cost unless a sink is attached.
//!
//! Three concrete sinks ship here: [`MetricsRecorder`] (in-memory
//! aggregates only), [`TelemetryShard`] (an ordered op log, drained
//! into another sink by replay) and [`TraceWriter`] (JSONL event
//! stream). [`Tee`] fans one instrumentation stream out to two sinks.

use crate::lockcheck::{LockRank, OrderedMutex};
use crate::stats::SearchStats;
use crate::RouteError;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// A telemetry field value (borrowed; sinks serialize immediately).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// Unsigned integer (counts, sizes).
    U64(u64),
    /// Floating point (delays, latencies, picoseconds).
    F64(f64),
    /// Short borrowed text (stage names, net names, outcomes).
    Str(&'a str),
}

/// A telemetry sink. All methods default to no-ops so a sink only
/// implements what it consumes; `Sync` because one sink may be shared by
/// planner worker threads.
pub trait Telemetry: Sync {
    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, _name: &str, _delta: u64) {}
    /// Raises the named gauge to `value` if larger (max-merge, so shard
    /// replay order cannot change the result).
    fn gauge_max(&self, _name: &str, _value: u64) {}
    /// Sets the named gauge to `value` unconditionally (last-value
    /// semantics, so the gauge can shrink — cache length after eviction,
    /// queue depth after drain). Only meaningful from serialized call
    /// sites: replaying last-value writes from concurrent shards would
    /// make the result order-dependent, which is why the planner's
    /// per-net shards stick to [`gauge_max`](Telemetry::gauge_max).
    fn gauge_set(&self, _name: &str, _value: u64) {}
    /// Records a completed span of `nanos` wall-clock nanoseconds.
    /// Trace-only: never part of the deterministic metrics surface.
    fn span_ns(&self, _name: &str, _nanos: u64) {}
    /// Records a structured event. Trace-only, like spans.
    fn event(&self, _name: &str, _fields: &[(&str, Value<'_>)]) {}
}

/// Forward through shared references so borrowed sinks compose
/// (e.g. `Tee(&recorder, &trace)`).
impl<T: Telemetry + ?Sized> Telemetry for &T {
    fn counter(&self, name: &str, delta: u64) {
        (**self).counter(name, delta);
    }
    fn gauge_max(&self, name: &str, value: u64) {
        (**self).gauge_max(name, value);
    }
    fn gauge_set(&self, name: &str, value: u64) {
        (**self).gauge_set(name, value);
    }
    fn span_ns(&self, name: &str, nanos: u64) {
        (**self).span_ns(name, nanos);
    }
    fn event(&self, name: &str, fields: &[(&str, Value<'_>)]) {
        (**self).event(name, fields);
    }
}

/// Forward through `Arc` so sinks can be shared across threads and
/// composed (e.g. `Tee<Arc<dyn …>, Arc<dyn …>>`).
impl<T: Telemetry + Send + ?Sized> Telemetry for Arc<T> {
    fn counter(&self, name: &str, delta: u64) {
        (**self).counter(name, delta);
    }
    fn gauge_max(&self, name: &str, value: u64) {
        (**self).gauge_max(name, value);
    }
    fn gauge_set(&self, name: &str, value: u64) {
        (**self).gauge_set(name, value);
    }
    fn span_ns(&self, name: &str, nanos: u64) {
        (**self).span_ns(name, nanos);
    }
    fn event(&self, name: &str, fields: &[(&str, Value<'_>)]) {
        (**self).event(name, fields);
    }
}

/// A `Copy` handle the specs carry: either nothing (the default — every
/// call is a single untaken branch) or a borrowed sink.
#[derive(Clone, Copy, Default)]
pub struct TelemetryHandle<'a> {
    sink: Option<&'a dyn Telemetry>,
}

impl fmt::Debug for TelemetryHandle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.sink.is_some() {
            "TelemetryHandle(attached)"
        } else {
            "TelemetryHandle(none)"
        })
    }
}

impl<'a> TelemetryHandle<'a> {
    /// The detached handle (all operations are no-ops).
    pub const fn none() -> TelemetryHandle<'a> {
        TelemetryHandle { sink: None }
    }

    /// A handle forwarding to `sink`.
    pub fn new(sink: &'a dyn Telemetry) -> TelemetryHandle<'a> {
        TelemetryHandle { sink: Some(sink) }
    }

    /// `true` when a sink is attached.
    pub fn is_active(&self) -> bool {
        self.sink.is_some()
    }

    /// See [`Telemetry::counter`].
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(s) = self.sink {
            s.counter(name, delta);
        }
    }

    /// See [`Telemetry::gauge_max`].
    #[inline]
    pub fn gauge_max(&self, name: &str, value: u64) {
        if let Some(s) = self.sink {
            s.gauge_max(name, value);
        }
    }

    /// See [`Telemetry::gauge_set`].
    #[inline]
    pub fn gauge_set(&self, name: &str, value: u64) {
        if let Some(s) = self.sink {
            s.gauge_set(name, value);
        }
    }

    /// See [`Telemetry::span_ns`].
    #[inline]
    pub fn span_ns(&self, name: &str, nanos: u64) {
        if let Some(s) = self.sink {
            s.span_ns(name, nanos);
        }
    }

    /// See [`Telemetry::event`].
    #[inline]
    pub fn event(&self, name: &str, fields: &[(&str, Value<'_>)]) {
        if let Some(s) = self.sink {
            s.event(name, fields);
        }
    }

    /// Runs one search on fresh counters, then flushes its statistics:
    /// deterministic counters/gauges keyed `search.<stage>.*`, plus a
    /// trace-only span and completion event. Every `solve` runs through
    /// here, so budget-exhausted and infeasible searches are visible too.
    pub(crate) fn search<T>(
        &self,
        stage: &str,
        run: impl FnOnce(&mut SearchStats) -> Result<T, RouteError>,
    ) -> Result<T, RouteError> {
        let started = std::time::Instant::now();
        let mut stats = SearchStats::new();
        let out = run(&mut stats);
        self.flush_search(stage, &stats, started.elapsed(), out.is_ok());
        out
    }

    fn flush_search(&self, stage: &str, stats: &SearchStats, elapsed: Duration, ok: bool) {
        let Some(sink) = self.sink else { return };
        let emit = |suffix: &str, v: u64| {
            if v > 0 {
                sink.counter(&format!("search.{stage}.{suffix}"), v);
            }
        };
        emit("solves", 1);
        emit("errors", u64::from(!ok));
        emit("pops", stats.configs);
        emit("pushed", stats.pushed);
        emit("pruned", stats.pruned);
        emit("bound_rejected", stats.bound_rejected);
        emit("stale_skipped", stats.stale_skipped);
        emit("waves", u64::from(stats.waves));
        emit("promoted", stats.promoted);
        emit("arena_steps", stats.arena_steps);
        emit("arena_bytes", stats.arena_bytes());
        emit("budget_charges", stats.budget_charges);
        emit("goal_pruned", stats.goal_pruned);
        emit("front_comparisons", stats.front_comparisons);
        sink.gauge_max(&format!("search.{stage}.max_queue"), stats.max_queue as u64);
        let span = format!("search.{stage}.solve_ns");
        sink.span_ns(&span, elapsed.as_nanos() as u64);
        sink.event(
            &format!("search.{stage}.done"),
            &[
                ("ok", Value::U64(u64::from(ok))),
                ("pops", Value::U64(stats.configs)),
                ("waves", Value::U64(u64::from(stats.waves))),
                ("arena_steps", Value::U64(stats.arena_steps)),
            ],
        );
    }
}

/// One recorded operation, kept in call order so a shard can be
/// replayed into an aggregate sink at commit time.
#[derive(Debug)]
enum Op {
    Counter(String, u64),
    Gauge(String, u64),
    GaugeSet(String, u64),
    Span(String, u64),
    Event(String, Vec<(String, OwnedValue)>),
}

#[derive(Debug)]
enum OwnedValue {
    U64(u64),
    F64(f64),
    Str(String),
}

impl OwnedValue {
    fn of(v: &Value<'_>) -> OwnedValue {
        match *v {
            Value::U64(x) => OwnedValue::U64(x),
            Value::F64(x) => OwnedValue::F64(x),
            Value::Str(s) => OwnedValue::Str(s.to_owned()),
        }
    }

    fn borrow(&self) -> Value<'_> {
        match self {
            OwnedValue::U64(x) => Value::U64(*x),
            OwnedValue::F64(x) => Value::F64(*x),
            OwnedValue::Str(s) => Value::Str(s),
        }
    }

    fn to_json(&self) -> String {
        match self {
            OwnedValue::U64(x) => x.to_string(),
            OwnedValue::F64(x) if x.is_finite() => format!("{x}"),
            OwnedValue::F64(_) => "null".to_owned(),
            OwnedValue::Str(s) => json_string(s),
        }
    }
}

#[derive(Debug, Default)]
struct Aggregates {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

/// Applies `f` to `name`'s value (0 if new), allocating the key only on
/// first use: a long-lived recorder updates the same few names on every
/// request.
fn update(map: &mut BTreeMap<String, u64>, name: &str, f: impl FnOnce(u64) -> u64) {
    match map.get_mut(name) {
        Some(v) => *v = f(*v),
        None => {
            map.insert(name.to_owned(), f(0));
        }
    }
}

/// In-memory aggregating sink: counters (sum) and gauges (max, or last
/// value for [`gauge_set`](Telemetry::gauge_set)) in sorted maps. Spans
/// and events are dropped, and nothing is kept per operation, so a
/// recorder that lives as long as a server stays the size of its name
/// set however many requests it counts. Call-order replay is
/// [`TelemetryShard`]'s job.
#[derive(Debug)]
pub struct MetricsRecorder {
    /// Telemetry-ranked (the leaf of the lattice): a recorder may be
    /// locked while any other lock is held, but must itself call out
    /// to nothing. Poisoning is ridden through inside `OrderedMutex` —
    /// telemetry must never take the search down.
    inner: OrderedMutex<Aggregates>,
}

impl Default for MetricsRecorder {
    fn default() -> MetricsRecorder {
        MetricsRecorder::new()
    }
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder {
            inner: OrderedMutex::new(
                LockRank::Telemetry,
                "telemetry.recorder",
                Aggregates::default(),
            ),
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (0 if never touched).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.inner.lock().gauges.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Snapshot of all gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Deterministic JSON document of counters and gauges.
    ///
    /// Keys are emitted in sorted order, so for a fixed scenario this
    /// output is byte-identical across runs and `--jobs` values.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &inner.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            out.push_str(&json_string(k));
            out.push_str(": ");
            out.push_str(&v.to_string());
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &inner.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            out.push_str(&json_string(k));
            out.push_str(": ");
            out.push_str(&v.to_string());
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Aligned `name  value` rows (counters then gauges, sorted), for
    /// the report summary table. Deterministic for the same reason as
    /// [`to_json`](MetricsRecorder::to_json).
    pub fn summary_rows(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let width = inner
            .counters
            .keys()
            .chain(inner.gauges.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        inner
            .counters
            .iter()
            .chain(inner.gauges.iter())
            .map(|(k, v)| format!("{k:<width$}  {v}"))
            .collect()
    }
}

impl Telemetry for MetricsRecorder {
    fn counter(&self, name: &str, delta: u64) {
        update(&mut self.inner.lock().counters, name, |v| v + delta);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        update(&mut self.inner.lock().gauges, name, |v| v.max(value));
    }

    fn gauge_set(&self, name: &str, value: u64) {
        update(&mut self.inner.lock().gauges, name, |_| value);
    }
}

/// A replayable op log: every counter, gauge, span and event in call
/// order, held until [`replay_into`](TelemetryShard::replay_into) moves
/// it into another sink.
///
/// The planner gives each net its own shard and replays committed
/// shards in net order, which is what makes the merged metrics
/// independent of worker count and scheduling; discarded speculative
/// attempts simply drop theirs. `crserve` records each solve into a
/// shard and replays it into the service's aggregate recorder.
#[derive(Debug)]
pub struct TelemetryShard {
    /// Telemetry-ranked, like [`MetricsRecorder`].
    log: OrderedMutex<Vec<Op>>,
}

impl Default for TelemetryShard {
    fn default() -> TelemetryShard {
        TelemetryShard::new()
    }
}

impl TelemetryShard {
    /// An empty shard.
    pub fn new() -> TelemetryShard {
        TelemetryShard {
            log: OrderedMutex::new(LockRank::Telemetry, "telemetry.shard", Vec::new()),
        }
    }

    /// Replays every recorded operation, in original call order, into
    /// `sink`, and empties the shard: a second replay adds nothing.
    pub fn replay_into(&self, sink: &dyn Telemetry) {
        // Take the log and release before replaying: the sink is
        // typically a Telemetry-ranked recorder, and replaying under
        // our own lock would be a same-rank double acquire (and a
        // needlessly long hold).
        let log = std::mem::take(&mut *self.log.lock());
        for op in &log {
            match op {
                Op::Counter(name, delta) => sink.counter(name, *delta),
                Op::Gauge(name, value) => sink.gauge_max(name, *value),
                Op::GaugeSet(name, value) => sink.gauge_set(name, *value),
                Op::Span(name, ns) => sink.span_ns(name, *ns),
                Op::Event(name, fields) => {
                    let borrowed: Vec<(&str, Value<'_>)> = fields
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.borrow()))
                        .collect();
                    sink.event(name, &borrowed);
                }
            }
        }
    }
}

impl Telemetry for TelemetryShard {
    fn counter(&self, name: &str, delta: u64) {
        self.log.lock().push(Op::Counter(name.to_owned(), delta));
    }

    fn gauge_max(&self, name: &str, value: u64) {
        self.log.lock().push(Op::Gauge(name.to_owned(), value));
    }

    fn gauge_set(&self, name: &str, value: u64) {
        self.log.lock().push(Op::GaugeSet(name.to_owned(), value));
    }

    fn span_ns(&self, name: &str, nanos: u64) {
        self.log.lock().push(Op::Span(name.to_owned(), nanos));
    }

    fn event(&self, name: &str, fields: &[(&str, Value<'_>)]) {
        let owned = fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), OwnedValue::of(v)))
            .collect();
        self.log.lock().push(Op::Event(name.to_owned(), owned));
    }
}

/// JSONL event-trace sink: every operation becomes one JSON object per
/// line, written immediately. Write errors are swallowed — telemetry
/// must never fail a route.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Send> {
    out: OrderedMutex<W>,
}

impl<W: Write + Send> TraceWriter<W> {
    /// Wraps a writer (a `File`, a `Vec<u8>`, …).
    pub fn new(out: W) -> TraceWriter<W> {
        TraceWriter {
            out: OrderedMutex::new(LockRank::Telemetry, "telemetry.trace", out),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner();
        let _ = w.flush();
        w
    }

    fn line(&self, text: &str) {
        let mut out = self.out.lock();
        let _ = writeln!(out, "{text}");
    }
}

impl<W: Write + Send> Telemetry for TraceWriter<W> {
    fn counter(&self, name: &str, delta: u64) {
        self.line(&format!(
            "{{\"kind\":\"counter\",\"name\":{},\"delta\":{delta}}}",
            json_string(name)
        ));
    }

    fn gauge_max(&self, name: &str, value: u64) {
        self.line(&format!(
            "{{\"kind\":\"gauge\",\"name\":{},\"max\":{value}}}",
            json_string(name)
        ));
    }

    fn gauge_set(&self, name: &str, value: u64) {
        self.line(&format!(
            "{{\"kind\":\"gauge_set\",\"name\":{},\"value\":{value}}}",
            json_string(name)
        ));
    }

    fn span_ns(&self, name: &str, nanos: u64) {
        self.line(&format!(
            "{{\"kind\":\"span\",\"name\":{},\"ns\":{nanos}}}",
            json_string(name)
        ));
    }

    fn event(&self, name: &str, fields: &[(&str, Value<'_>)]) {
        let mut body = String::new();
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json_string(k));
            body.push(':');
            body.push_str(&OwnedValue::of(v).to_json());
        }
        self.line(&format!(
            "{{\"kind\":\"event\",\"name\":{},\"fields\":{{{body}}}}}",
            json_string(name)
        ));
    }
}

/// Fans every operation out to two sinks (metrics + trace, typically).
#[derive(Debug)]
pub struct Tee<A: Telemetry, B: Telemetry>(pub A, pub B);

impl<A: Telemetry, B: Telemetry> Telemetry for Tee<A, B> {
    fn counter(&self, name: &str, delta: u64) {
        self.0.counter(name, delta);
        self.1.counter(name, delta);
    }
    fn gauge_max(&self, name: &str, value: u64) {
        self.0.gauge_max(name, value);
        self.1.gauge_max(name, value);
    }
    fn gauge_set(&self, name: &str, value: u64) {
        self.0.gauge_set(name, value);
        self.1.gauge_set(name, value);
    }
    fn span_ns(&self, name: &str, nanos: u64) {
        self.0.span_ns(name, nanos);
        self.1.span_ns(name, nanos);
    }
    fn event(&self, name: &str, fields: &[(&str, Value<'_>)]) {
        self.0.event(name, fields);
        self.1.event(name, fields);
    }
}

/// Kept reachable here because `perfbench`, a separate package, imports it from this path.
pub use crate::json::json_string;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{validate_json, validate_jsonl};

    #[test]
    fn noop_handle_is_inert() {
        let h = TelemetryHandle::none();
        assert!(!h.is_active());
        h.counter("x", 1);
        h.gauge_max("x", 1);
        h.span_ns("x", 1);
        h.event("x", &[("k", Value::U64(1))]);
    }

    #[test]
    fn recorder_aggregates_counters_and_gauges() {
        let rec = MetricsRecorder::new();
        rec.counter("a", 2);
        rec.counter("a", 3);
        rec.counter("b", 1);
        rec.gauge_max("q", 7);
        rec.gauge_max("q", 4); // lower: ignored
        assert_eq!(rec.counter_value("a"), 5);
        assert_eq!(rec.counter_value("b"), 1);
        assert_eq!(rec.counter_value("missing"), 0);
        assert_eq!(rec.gauge_value("q"), 7);
    }

    #[test]
    fn replay_reproduces_aggregates_and_order() {
        let shard = TelemetryShard::new();
        shard.counter("a", 2);
        shard.gauge_max("g", 9);
        shard.span_ns("s", 123);
        shard.event("e", &[("net", Value::Str("n0")), ("x", Value::F64(1.5))]);
        shard.counter("a", 1);

        // One replay feeds both an aggregate and a trace, which keeps
        // call order.
        let total = MetricsRecorder::new();
        let trace = TraceWriter::new(Vec::new());
        shard.replay_into(&Tee(&total, &trace));
        assert_eq!(total.counter_value("a"), 3);
        assert_eq!(total.gauge_value("g"), 9);
        let text = String::from_utf8(trace.into_inner()).unwrap();
        let kinds: Vec<&str> = text.lines().map(|l| l.split('"').nth(3).unwrap()).collect();
        assert_eq!(kinds, ["counter", "gauge", "span", "event", "counter"]);
        validate_jsonl(&text).unwrap();
    }

    #[test]
    fn replay_drains_the_shard() {
        let shard = TelemetryShard::new();
        shard.counter("a", 2);
        shard.gauge_set("len", 7);
        shard.span_ns("s", 5);
        let total = MetricsRecorder::new();
        shard.replay_into(&total);
        shard.replay_into(&total);
        assert_eq!(total.counter_value("a"), 2, "a second replay adds nothing");
        let trace = TraceWriter::new(Vec::new());
        shard.replay_into(&trace);
        assert!(
            trace.into_inner().is_empty(),
            "the shard is empty after replay"
        );

        // A drained shard records afresh.
        shard.counter("a", 1);
        shard.replay_into(&total);
        assert_eq!(total.counter_value("a"), 3);
    }

    #[test]
    fn recorder_aggregates_without_per_operation_storage() {
        let rec = MetricsRecorder::new();
        let (mut sum, mut peak) = (0u64, 0u64);
        for i in 0..10_000u64 {
            let v = i.wrapping_mul(7919) % 1000;
            rec.counter("n", v);
            rec.gauge_max("peak", v);
            rec.gauge_set("last", v);
            rec.span_ns("dropped", v);
            rec.event("dropped", &[("v", Value::U64(v))]);
            sum += v;
            peak = peak.max(v);
        }
        assert_eq!(rec.counter_value("n"), sum);
        assert_eq!(rec.gauge_value("peak"), peak);
        assert_eq!(rec.gauge_value("last"), 9_999 * 7919 % 1000);
        // The whole state is the name set: one counter, two gauges.
        assert_eq!(rec.counters(), [("n".to_owned(), sum)]);
        assert_eq!(rec.gauges().len(), 2);
        assert_eq!(rec.summary_rows().len(), 3);
    }

    #[test]
    fn gauge_set_is_last_value_while_gauge_max_keeps_the_peak() {
        let rec = MetricsRecorder::new();
        rec.gauge_set("len", 5);
        rec.gauge_set("len", 3); // shrink is visible — the whole point
        rec.gauge_max("len.max", 5);
        rec.gauge_max("len.max", 3);
        assert_eq!(rec.gauge_value("len"), 3);
        assert_eq!(rec.gauge_value("len.max"), 5);

        // A max-merge after a set still raises, a lower one still loses.
        rec.gauge_max("len", 9);
        assert_eq!(rec.gauge_value("len"), 9);
        rec.gauge_set("len", 2);
        assert_eq!(rec.gauge_value("len"), 2);
    }

    #[test]
    fn replay_preserves_gauge_set_ordering() {
        let shard = TelemetryShard::new();
        shard.gauge_set("len", 7);
        shard.gauge_set("len", 4);
        let total = MetricsRecorder::new();
        let trace = TraceWriter::new(Vec::new());
        shard.replay_into(&Tee(&total, &trace));
        assert_eq!(total.gauge_value("len"), 4, "replay must keep call order");
        let text = String::from_utf8(trace.into_inner()).unwrap();
        validate_jsonl(&text).unwrap();
        assert_eq!(text.matches("\"gauge_set\"").count(), 2);
    }

    #[test]
    fn json_export_is_sorted_and_valid() {
        let rec = MetricsRecorder::new();
        rec.counter("z.last", 1);
        rec.counter("a.first", 2);
        rec.gauge_max("m.mid", 3);
        rec.span_ns("never.in.json", 1); // spans excluded
        let json = rec.to_json();
        validate_json(&json).unwrap();
        let a = json.find("a.first").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < z, "keys must be sorted:\n{json}");
        assert!(!json.contains("never.in.json"));
    }

    #[test]
    fn json_export_identical_regardless_of_call_order() {
        let forward = MetricsRecorder::new();
        forward.counter("a", 1);
        forward.counter("b", 2);
        forward.gauge_max("g", 5);
        forward.gauge_max("g", 9);
        let backward = MetricsRecorder::new();
        backward.gauge_max("g", 9);
        backward.gauge_max("g", 5);
        backward.counter("b", 2);
        backward.counter("a", 1);
        assert_eq!(forward.to_json(), backward.to_json());
    }

    #[test]
    fn empty_recorder_exports_valid_json() {
        let json = MetricsRecorder::new().to_json();
        validate_json(&json).unwrap();
    }

    #[test]
    fn trace_lines_are_valid_jsonl_with_escaping() {
        let trace = TraceWriter::new(Vec::new());
        trace.counter("weird \"name\"\n", 1);
        trace.event(
            "e",
            &[
                ("s", Value::Str("a\\b\t")),
                ("nan", Value::F64(f64::NAN)),
                ("f", Value::F64(2.25)),
            ],
        );
        let text = String::from_utf8(trace.into_inner()).unwrap();
        validate_jsonl(&text).unwrap();
        assert!(text.contains("null"), "NaN must serialize as null: {text}");
    }

    #[test]
    fn tee_duplicates_operations() {
        let a = MetricsRecorder::new();
        let b = Arc::new(MetricsRecorder::new());
        let tee = Tee(&a, b.clone());
        tee.counter("x", 4);
        tee.gauge_max("g", 2);
        assert_eq!(a.counter_value("x"), 4);
        assert_eq!(b.counter_value("x"), 4);
        assert_eq!(a.gauge_value("g"), 2);
        assert_eq!(b.gauge_value("g"), 2);
    }

    #[test]
    fn summary_rows_are_aligned_and_sorted() {
        let rec = MetricsRecorder::new();
        rec.counter("bbb.long.name", 10);
        rec.counter("a", 2);
        rec.gauge_max("zz.gauge", 3);
        let rows = rec.summary_rows();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with("a "), "{rows:?}");
        assert!(rows[0].ends_with(" 2"), "{rows:?}");
        assert!(rows[2].starts_with("zz.gauge"), "{rows:?}");
    }
}
