//! The aggregated, serializable view of a telemetry domain.

use crate::metrics::Registry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One counter's value. `name` includes rendered labels, e.g.
/// `frames_processed{camera="0"}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Rendered instrument name.
    pub name: String,
    /// Current count.
    pub value: u64,
}

/// One gauge's value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Rendered instrument name.
    pub name: String,
    /// Latest value.
    pub value: f64,
}

/// One histogram, summarized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Rendered instrument name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// All completed spans sharing a name, aggregated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total wall-clock seconds across them.
    pub total_s: f64,
    /// Longest single span.
    pub max_s: f64,
}

/// The aggregated metrics + span view of one telemetry domain.
/// Serializable, cheap to clone, detached from the live registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// All counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// Completed spans aggregated by name, sorted by name.
    pub spans: Vec<SpanSummary>,
}

impl TelemetryReport {
    /// Value of the counter with this rendered name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Sum of all counters whose bare name (ignoring labels) matches —
    /// e.g. `counter_total("frames_processed")` adds every camera.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name || c.name.starts_with(&format!("{name}{{")))
            .map(|c| c.value)
            .sum()
    }

    /// Value of the gauge with this rendered name, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Summary of the histogram with this rendered name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Summary of the spans with this name, if any completed.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Total wall-clock seconds of spans with this name (0 when none).
    pub fn span_total_s(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |s| s.total_s)
    }
}

/// The report over the registry's current values and the per-name span
/// summaries, which the span log keeps up to date as spans complete.
pub(crate) fn build(registry: &Registry, spans: &BTreeMap<String, SpanSummary>) -> TelemetryReport {
    let counters = registry
        .counter_values()
        .into_iter()
        .map(|(k, value)| CounterEntry {
            name: k.render(),
            value,
        })
        .collect();
    let gauges = registry
        .gauge_values()
        .into_iter()
        .map(|(k, value)| GaugeEntry {
            name: k.render(),
            value,
        })
        .collect();
    let histograms = registry
        .histogram_cores()
        .into_iter()
        .map(|(k, core)| HistogramSummary {
            name: k.render(),
            count: core.count(),
            sum: core.sum(),
            min: core.min(),
            max: core.max(),
            p50: core.quantile(0.50),
            p95: core.quantile(0.95),
            p99: core.quantile(0.99),
        })
        .collect();

    TelemetryReport {
        counters,
        gauges,
        histograms,
        spans: spans.values().cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn report_aggregates_spans_by_name() {
        let t = Telemetry::enabled();
        for _ in 0..3 {
            let _s = t.span("stage.analysis");
        }
        let report = t.report();
        let s = report.span("stage.analysis").unwrap();
        assert_eq!(s.count, 3);
        assert!(s.total_s >= s.max_s);
        assert_eq!(report.span("missing"), None);
        assert_eq!(report.span_total_s("missing"), 0.0);
    }

    #[test]
    fn span_summaries_equal_a_fold_over_the_records() {
        let t = Telemetry::enabled();
        let workers: Vec<_> = (0..3)
            .map(|k| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let _outer = t.span(if (i + k) % 3 == 0 {
                            "b.outer"
                        } else {
                            "a.outer"
                        });
                        let _inner = t.span("c.inner");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let snapshot = t.snapshot();
        let mut folded: std::collections::BTreeMap<&str, (u64, f64, f64)> = Default::default();
        for s in &snapshot.spans {
            let e = folded.entry(&s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.duration_s;
            e.2 = e.2.max(s.duration_s);
        }
        let summaries: Vec<_> = snapshot
            .report
            .spans
            .iter()
            .map(|s| {
                (
                    s.name.as_str(),
                    s.count,
                    s.total_s.to_bits(),
                    s.max_s.to_bits(),
                )
            })
            .collect();
        let expected: Vec<_> = folded
            .into_iter()
            .map(|(name, (count, total, max))| (name, count, total.to_bits(), max.to_bits()))
            .collect();
        assert_eq!(summaries, expected);
        assert_eq!(t.report().spans, snapshot.report.spans);
        assert_eq!(summaries.iter().map(|s| s.1).sum::<u64>(), 1200);
    }

    #[test]
    fn counter_total_sums_labels() {
        let t = Telemetry::enabled();
        t.counter_with("frames", &[("camera", "0")]).add(10);
        t.counter_with("frames", &[("camera", "1")]).add(5);
        t.counter("frames_other").add(99);
        let report = t.report();
        assert_eq!(report.counter_total("frames"), 15);
        assert_eq!(report.counter("frames{camera=\"0\"}"), Some(10));
    }

    #[test]
    fn report_round_trips_through_json() {
        let t = Telemetry::enabled();
        t.counter("c").add(2);
        t.gauge("g").set(1.5);
        t.histogram("h").observe(0.25);
        {
            let _s = t.span("s");
        }
        let report = t.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: super::TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counter("c"), Some(2));
        assert_eq!(back.gauge("g"), Some(1.5));
        assert_eq!(back.histogram("h").unwrap().count, 1);
        assert_eq!(back.span("s").unwrap().count, 1);
    }
}
