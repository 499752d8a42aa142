//! Percentiles that carry their sample count, metric records and the
//! metric-name grammar.

use std::fmt::Write as _;

/// A percentile together with the number of samples it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Samples a percentile needs above its rank before it is reported:
/// fewer, and one stray sample can move it.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`.
///
/// Refuses (`Err`) when fewer than [`MIN_TAIL`] samples lie beyond the
/// rank, so p50 needs 20 samples and p90 needs 100.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{p} of {n} samples has {beyond} samples beyond it; need at least {MIN_TAIL}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank.max(1) - 1],
        samples: n,
    })
}

/// Median of a small set (set-up repeats, per-layer timings), where the
/// tail rule of [`percentile`] does not apply. `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// `true` for a metric name of the grammar `[A-Za-z0-9_.-]+` that
/// starts with a letter or digit and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` for a unit made of letters, digits and `_/%.-`, at most 16
/// characters.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile, printed next to it.
    pub samples: Option<usize>,
}

/// An ordered set of metrics; names are checked against the grammar on
/// insertion, so a typo fails the run instead of reaching the result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.insert(name, value, unit, None);
    }

    pub fn put_pct(&mut self, name: &str, p: Percentile, unit: &'static str) {
        self.insert(name, p.value, unit, Some(p.samples));
    }

    fn insert(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        assert!(valid_name(name), "bad metric name `{name}`");
        assert!(valid_unit(unit), "bad unit `{unit}` for `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(self.get(name).is_none(), "metric `{name}` reported twice");
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Human-readable rows: name, value, unit and sample count.
    pub fn rows(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = write!(out, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, "  (n={n})");
            }
            out.push('\n');
        }
        out
    }

    /// The `"metrics"` JSON object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&samples, 50.0).unwrap();
        assert_eq!(
            p50,
            Percentile {
                value: 50.0,
                samples: 100
            }
        );
        let p90 = percentile(&samples, 90.0).unwrap();
        assert_eq!(
            p90,
            Percentile {
                value: 90.0,
                samples: 100
            }
        );
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=40).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 50.0).unwrap().value, 20.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&samples, 90.0).unwrap_err();
        assert!(err.contains("need at least 10"), "{err}");
        assert!(percentile(&samples[..19], 50.0).is_err());
        assert!(percentile(&samples[..20], 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&samples, 0.0).is_err());
        assert!(percentile(&samples, 100.0).is_err());
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "req_p50_ms",
            "search.rbp.pops",
            "a-b",
            "0x",
            "service.hit_ratio",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "ünicode",
            "a/b",
            "x\"y",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().put("bad name", 1.0, "ms");
    }

    #[test]
    fn metrics_render_json() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put_pct(
            "req_p50_ms",
            Percentile {
                value: 1.25,
                samples: 30,
            },
            "ms",
        );
        assert_eq!(
            m.to_json(),
            "{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"req_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}"
        );
        assert!(m.rows().contains("(n=30)"));
    }
}
