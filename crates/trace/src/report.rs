//! The drained form of a recording: sorted aggregates plus (in full
//! mode) a chrome-trace-compatible event array.
//!
//! Everything in a [`TraceReport`] is deterministically ordered — spans,
//! counters, and histograms by name (the recorder's `BTreeMap` order),
//! events by `(start_ns, name, dur_ns, work)` — so `to_json()` output is
//! byte-identical whenever the recorded totals are, which is what the
//! trace determinism tests compare across `ENW_THREADS` settings.

use crate::recorder::{Sink, SpanStat};
use crate::TraceMode;

/// Aggregate entry for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanEntry {
    /// Span name (convention: `lane/stage`).
    pub name: &'static str,
    /// Times entered.
    pub count: u64,
    /// Total trace-clock nanoseconds.
    pub clock_ns: u64,
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

/// One full-mode event (a completed span entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: &'static str,
    /// Trace-clock time at entry.
    pub start_ns: u64,
    /// Elapsed trace-clock nanoseconds.
    pub dur_ns: u64,
    /// Work attributed to this entry.
    pub work: u64,
}

/// Everything one recording produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Mode the recording ran under (`off`/`summary`/`full`).
    pub mode: &'static str,
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanEntry>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistEntry>,
    /// Full-mode events in canonical order (empty in summary mode).
    pub events: Vec<TraceEvent>,
}

/// Builds the report from a drained sink (crate-internal).
pub(crate) fn build(mode: TraceMode, sink: Sink) -> TraceReport {
    let spans: Vec<SpanEntry> = sink
        .spans
        .iter()
        .map(|(&name, s)| {
            let SpanStat { count, clock_ns, work, bytes_read, bytes_written } = *s;
            SpanEntry { name, count, clock_ns, work, bytes_read, bytes_written }
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
    let mut events = sink.events;
    events.sort_by(|a, b| {
        (a.start_ns, a.name, a.dur_ns, a.work).cmp(&(b.start_ns, b.name, b.dur_ns, b.work))
    });
    TraceReport { mode: mode.as_str(), spans, counters, histograms, events }
}

impl TraceReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
    }

    /// Total work units across all spans.
    pub fn total_work(&self) -> u64 {
        self.spans.iter().map(|s| s.work).sum()
    }

    /// Chrome-trace-compatible JSON (load in `chrome://tracing` or
    /// Perfetto): a `traceEvents` array of complete (`"ph": "X"`) events
    /// plus a `summary` object with the aggregates. In summary mode the
    /// event array is synthesized from span totals laid end to end.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n");
        out.push_str(&format!("  \"otherData\": {{\"mode\": \"{}\"}},\n", self.mode));
        out.push_str("  \"summary\": {\n    \"spans\": [\n");
        let total_work = self.total_work().max(1);
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"name\": \"{}\", \"count\": {}, \"clock_ns\": {}, \"work\": {}, \"work_share\": {:.6}, \"bytes_read\": {}, \"bytes_written\": {}}}{}\n",
                s.name,
                s.count,
                s.clock_ns,
                s.work,
                s.work as f64 / total_work as f64,
                s.bytes_read,
                s.bytes_written,
                comma(i, self.spans.len())
            ));
        }
        out.push_str("    ],\n    \"counters\": [\n");
        for (i, c) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"name\": \"{}\", \"value\": {}}}{}\n",
                c.name,
                c.value,
                comma(i, self.counters.len())
            ));
        }
        out.push_str("    ],\n    \"histograms\": [\n");
        for (i, h) in self.histograms.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"name\": \"{}\", \"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}{}\n",
                h.name,
                h.count,
                h.min,
                h.max,
                h.mean,
                h.p50,
                h.p95,
                h.p99,
                comma(i, self.histograms.len())
            ));
        }
        out.push_str("    ]\n  },\n  \"traceEvents\": [\n");
        if self.events.is_empty() {
            // Summary mode: synthesize one complete event per span so the
            // file still renders as a timeline.
            let mut ts = 0u64;
            for (i, s) in self.spans.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"count\": {}, \"work\": {}}}}}{}\n",
                    s.name,
                    ts as f64 / 1e3,
                    s.clock_ns as f64 / 1e3,
                    s.count,
                    s.work,
                    comma(i, self.spans.len())
                ));
                ts += s.clock_ns;
            }
        } else {
            for (i, e) in self.events.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"work\": {}}}}}{}\n",
                    e.name,
                    e.start_ns as f64 / 1e3,
                    e.dur_ns as f64 / 1e3,
                    e.work,
                    comma(i, self.events.len())
                ));
            }
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Aligned text summary (the `ENW_TRACE=summary` console rendering).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            let total_work = self.total_work().max(1);
            out.push_str(&format!(
                "{:<32} {:>10} {:>14} {:>14} {:>7} {:>12} {:>12} {:>9}\n",
                "span", "count", "clock_ns", "work", "work%", "bytes_rd", "bytes_wr", "work/B"
            ));
            for s in &self.spans {
                let intensity = match s.work_per_byte() {
                    Some(i) => format!("{i:.3}"),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "{:<32} {:>10} {:>14} {:>14} {:>6.1}% {:>12} {:>12} {:>9}\n",
                    s.name,
                    s.count,
                    s.clock_ns,
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

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{counter_add, record_value, reset, span, take_report};
    use crate::{set_mode, set_virtual_ns, test_lock};

    fn sample_report(mode: TraceMode) -> TraceReport {
        let _guard = test_lock::hold();
        set_mode(mode);
        reset();
        set_virtual_ns(10);
        {
            let s = span("report/stage-a");
            s.add_work(30);
            set_virtual_ns(40);
        }
        crate::record_span_io("report/stage-b", 70, 560, 140);
        counter_add("report.count", 9);
        record_value("report.lat", 1234);
        set_virtual_ns(0);
        let r = take_report();
        set_mode(TraceMode::Off);
        r
    }

    #[test]
    fn json_has_chrome_trace_shape_and_summary() {
        let r = sample_report(TraceMode::Summary);
        let json = r.to_json();
        assert!(json.contains("\"traceEvents\""), "chrome-trace key missing");
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"report/stage-a\""));
        assert!(json.contains("\"work_share\": 0.300000"));
        assert!(json.contains("\"bytes_read\": 560"), "{json}");
        assert!(json.contains("\"bytes_written\": 140"), "{json}");
        assert!(json.contains("\"p50\": 1234") || json.contains("\"p50\": 12"), "{json}");
        assert_eq!(r.total_work(), 100);
    }

    #[test]
    fn summary_table_reports_bytes_and_intensity() {
        let r = sample_report(TraceMode::Summary);
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
    fn full_mode_emits_real_events() {
        let r = sample_report(TraceMode::Full);
        assert_eq!(r.events.len(), 2);
        let json = r.to_json();
        assert!(json.contains("\"ts\": 0.010") || json.contains("\"ts\": 0.04"), "{json}");
    }

    #[test]
    fn summary_table_lists_everything() {
        let r = sample_report(TraceMode::Summary);
        let t = r.summary_table();
        assert!(t.contains("report/stage-a"));
        assert!(t.contains("report.count"));
        assert!(t.contains("report.lat"));
        assert!(t.contains("30.0%"), "{t}");
    }

    #[test]
    fn empty_report_is_empty() {
        let r = TraceReport::default();
        assert!(r.is_empty());
        let json = r.to_json();
        assert!(json.contains("\"traceEvents\""));
    }
}
