//! The drained form of a recording: sorted aggregates.
//!
//! Everything in a [`TraceReport`] is deterministically ordered — spans,
//! counters, and histograms by name (the recorder's `BTreeMap` order) —
//! so two reports compare equal whenever the recorded totals are, which
//! is what the trace determinism test checks across `ENW_THREADS`
//! settings.

use crate::recorder::{Sink, SpanStat};

/// Aggregate entry for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanEntry {
    /// Span name (convention: `lane/stage`).
    pub name: &'static str,
    /// Times entered.
    pub count: u64,
    /// Total attributed work units.
    pub work: u64,
    /// Total bytes read from operands (shape-derived, deterministic).
    pub bytes_read: u64,
    /// Total bytes written to outputs (shape-derived, deterministic).
    pub bytes_written: u64,
}

impl SpanEntry {
    /// Total bytes moved (reads plus writes) by this span.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_read.saturating_add(self.bytes_written)
    }

    /// Arithmetic intensity: attributed work units per byte moved, or
    /// `None` when the span recorded no traffic. The optimization target
    /// the kernel rework steers by — raising it means more compute per
    /// byte of memory traffic.
    pub fn work_per_byte(&self) -> Option<f64> {
        let bytes = self.bytes_moved();
        if bytes == 0 {
            None
        } else {
            Some(self.work as f64 / bytes as f64)
        }
    }
}

/// One named monotone counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterEntry {
    /// Counter name.
    pub name: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// Summary of one named histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistEntry {
    /// Histogram name.
    pub name: &'static str,
    /// Recorded values.
    pub count: u64,
    /// Exact observed minimum.
    pub min: u64,
    /// Exact observed maximum.
    pub max: u64,
    /// Mean (rounded down).
    pub mean: u64,
    /// Nearest-rank 50th percentile.
    pub p50: u64,
    /// Nearest-rank 95th percentile.
    pub p95: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(upper_bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Everything one recording produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanEntry>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistEntry>,
}

/// Builds the report from a drained sink (crate-internal).
pub(crate) fn build(sink: Sink) -> TraceReport {
    let spans: Vec<SpanEntry> = sink
        .spans
        .iter()
        .map(|(&name, s)| {
            let SpanStat { count, work, bytes_read, bytes_written } = *s;
            SpanEntry { name, count, work, bytes_read, bytes_written }
        })
        .collect();
    let counters: Vec<CounterEntry> =
        sink.counters.iter().map(|(&name, &value)| CounterEntry { name, value }).collect();
    let histograms: Vec<HistEntry> = sink
        .values
        .iter()
        .map(|(&name, h)| HistEntry {
            name,
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            buckets: h.nonzero_buckets(),
        })
        .collect();
    TraceReport { spans, counters, histograms }
}

impl TraceReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Total work units across all spans.
    pub fn total_work(&self) -> u64 {
        self.spans.iter().map(|s| s.work).sum()
    }

    /// Aligned text summary (the `ENW_TRACE=summary` console rendering).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            let total_work = self.total_work().max(1);
            out.push_str(&format!(
                "{:<32} {:>10} {:>14} {:>7} {:>12} {:>12} {:>9}\n",
                "span", "count", "work", "work%", "bytes_rd", "bytes_wr", "work/B"
            ));
            for s in &self.spans {
                let intensity = match s.work_per_byte() {
                    Some(i) => format!("{i:.3}"),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "{:<32} {:>10} {:>14} {:>6.1}% {:>12} {:>12} {:>9}\n",
                    s.name,
                    s.count,
                    s.work,
                    100.0 * s.work as f64 / total_work as f64,
                    s.bytes_read,
                    s.bytes_written,
                    intensity
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n{:<32} {:>14}\n", "counter", "value"));
            for c in &self.counters {
                out.push_str(&format!("{:<32} {:>14}\n", c.name, c.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "\n{:<32} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "histogram", "count", "p50", "p95", "p99", "max"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<32} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    h.name, h.count, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{counter_add, record_value, reset, span, take_report};
    use crate::{set_mode, test_lock, TraceMode};

    fn sample_report() -> TraceReport {
        let _guard = test_lock::hold();
        set_mode(TraceMode::Summary);
        reset();
        {
            let s = span("report/stage-a");
            s.add_work(30);
        }
        crate::record_span_io("report/stage-b", 70, 560, 140);
        counter_add("report.count", 9);
        record_value("report.lat", 1234);
        let r = take_report();
        set_mode(TraceMode::Off);
        r
    }

    #[test]
    fn summary_table_reports_bytes_and_intensity() {
        let r = sample_report();
        let t = r.summary_table();
        assert!(t.contains("bytes_rd"), "{t}");
        assert!(t.contains("560"), "{t}");
        assert!(t.contains("140"), "{t}");
        // stage-b: 70 work over 700 bytes = 0.100 work/B; stage-a moved
        // no bytes and must render a dash, not a division by zero.
        assert!(t.contains("0.100"), "{t}");
        assert!(t.contains(" -\n") || t.contains(" - "), "{t}");
        let b = r.spans.iter().find(|s| s.name == "report/stage-b").unwrap();
        assert_eq!(b.bytes_moved(), 700);
        assert_eq!(b.work_per_byte(), Some(0.1));
        let a = r.spans.iter().find(|s| s.name == "report/stage-a").unwrap();
        assert_eq!(a.work_per_byte(), None);
    }

    #[test]
    fn summary_table_lists_everything() {
        let r = sample_report();
        let t = r.summary_table();
        assert!(t.contains("report/stage-a"));
        assert!(t.contains("report.count"));
        assert!(t.contains("report.lat"));
        assert!(t.contains("30.0%"), "{t}");
        assert_eq!(r.total_work(), 100);
    }

    #[test]
    fn empty_report_is_empty() {
        let r = TraceReport::default();
        assert!(r.is_empty());
        assert_eq!(r.summary_table(), "");
    }
}
