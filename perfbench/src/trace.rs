//! The traced run's plumbing: a telemetry sink that keeps the counters
//! and spans the program already emits, per-layer timing samples, and
//! the fixed list of per-layer metrics every traced run prints.

use crate::stats::{median, Metrics};
use clockroute_core::Telemetry;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Keeps every counter, last-value gauge and span it is given.
#[derive(Debug, Default)]
pub struct Sink {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    spans: Mutex<BTreeMap<String, Vec<u64>>>,
}

impl Telemetry for Sink {
    fn counter(&self, name: &str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("sink lock")
            .entry(name.to_owned())
            .or_default() += delta;
    }
    fn gauge_max(&self, name: &str, value: u64) {
        let mut g = self.gauges.lock().expect("sink lock");
        let slot = g.entry(name.to_owned()).or_default();
        *slot = (*slot).max(value);
    }
    fn gauge_set(&self, name: &str, value: u64) {
        self.gauges
            .lock()
            .expect("sink lock")
            .insert(name.to_owned(), value);
    }
    fn span_ns(&self, name: &str, nanos: u64) {
        self.spans
            .lock()
            .expect("sink lock")
            .entry(name.to_owned())
            .or_default()
            .push(nanos);
    }
}

impl Sink {
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("sink lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.gauges
            .lock()
            .expect("sink lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }
    pub fn span_samples(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("sink lock")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }
}

/// Per-layer measurements of one traced run: timing samples (combined
/// by median) and exact counts (summed).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub times: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<String, f64>,
}

impl Layers {
    pub fn time(&mut self, name: &'static str, value: f64) {
        self.times.entry(name).or_default().push(value);
    }
    pub fn count(&mut self, name: &str, value: f64) {
        *self.counts.entry(name.to_owned()).or_default() += value;
    }
    pub fn med(&self, name: &str) -> f64 {
        self.times.get(name).and_then(|v| median(v)).unwrap_or(0.0)
    }
    /// Adds the planner's per-net solve spans, in ms.
    pub fn spans_ms(&mut self, sink: &Sink) {
        for ns in sink.span_samples("plan.net.solve_ns") {
            self.time("plan.net_solve_ms", ns as f64 / 1e6);
        }
    }

    /// Adds the exact search counters a planner sink collected.
    pub fn search_counters(&mut self, sink: &Sink) {
        for stage in SEARCH_STAGES {
            for what in SEARCH_COUNTERS {
                let name = format!("search.{stage}.{what}");
                self.count(&name, sink.counter_value(&name) as f64);
            }
        }
    }
}

pub const SEARCH_STAGES: [&str; 3] = ["fastpath", "rbp", "gals"];
pub const SEARCH_COUNTERS: [&str; 4] = ["pops", "pushed", "front_comparisons", "arena_bytes"];

/// Every per-layer metric, in print order, with its unit. Timings are
/// medians over the traced run's samples; the rest are exact counts of
/// the workload's fixed request sequence. A layer that is not on a
/// workload's path reads 0 there.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("transport.ping_rtt_ms", "ms"),
        ("protocol.parse_request_us", "us"),
        ("scenario.parse_us", "us"),
        ("keys.scenario_key_us", "us"),
        ("server.handle_line_us", "us"),
        ("server.self_us", "us"),
        ("service.hits", "count"),
        ("service.misses", "count"),
        ("service.warm_reuse", "count"),
        ("service.coalesced", "count"),
        ("service.evictions", "count"),
        ("service.rejects", "count"),
        ("service.hit_ratio", "ratio"),
        ("service.warm_ratio", "ratio"),
        ("client.retries", "count"),
        ("persist.encode_entry_us", "us"),
        ("persist.append_ms", "ms"),
        ("persist.load_ms", "ms"),
        ("plan.cold_ms", "ms"),
        ("plan.warm_ms", "ms"),
        ("plan.net_solve_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    for stage in SEARCH_STAGES {
        for what in SEARCH_COUNTERS {
            let unit = if what == "arena_bytes" {
                "bytes"
            } else {
                "count"
            };
            out.push((format!("search.{stage}.{what}"), unit));
        }
    }
    out.extend(
        [
            ("report.plan_report_us", "us"),
            ("flow.flow_ms", "ms"),
            ("flow.rounds", "count"),
            ("flow.price.updates", "count"),
            ("flow.ripups", "count"),
            ("flow.overflow.total", "count"),
            ("crplan.floor_ms", "ms"),
            ("unattributed_ms", "ms"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_owned(), u)),
    );
    out
}

impl Layers {
    /// The full per-layer metric set: timings by median, counts as
    /// summed, everything absent as 0.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in per_layer_names() {
            let value = match self.times.get(name.as_str()) {
                Some(samples) => median(samples).unwrap_or(0.0),
                None => self.counts.get(&name).copied().unwrap_or(0.0),
            };
            m.put(&name, value, unit);
        }
        m
    }
}
