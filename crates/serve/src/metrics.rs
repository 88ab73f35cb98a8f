//! Per-station serving metrics on the shared `enw-trace` histogram.
//!
//! Earlier revisions kept every served latency in a `Vec<u64>` and
//! computed nearest-rank percentiles over the sorted list. The counters
//! survive unchanged, but latencies now accumulate into
//! [`enw_trace::Histogram`] — the same fixed-bucket type the rest of the
//! workspace records into — so a station's distribution merges with any
//! other deterministically and in O(buckets) memory regardless of run
//! length. Bucket boundaries are a pure function of the value, so the
//! reported p50/p95/p99 remain bit-identical across runs, hosts, and
//! `ENW_THREADS` settings; values below 64 ns are exact and larger ones
//! quantize to ≤ ~3% (min/max stay exact).

use enw_trace::Histogram;

/// Summary statistics of one lane's served latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Served responses (on-time + late).
    pub count: u64,
    /// Median latency (ns, bucket-quantized).
    pub p50_ns: u64,
    /// 95th percentile (ns, bucket-quantized).
    pub p95_ns: u64,
    /// 99th percentile (ns, bucket-quantized).
    pub p99_ns: u64,
    /// Worst served latency (ns, exact).
    pub max_ns: u64,
}

/// Counters and latencies for one station over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StationMetrics {
    /// Lane name (primary backend's).
    pub name: String,
    /// Requests that arrived for this station.
    pub arrived: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Requests dropped at batch close (deadline already passed).
    pub shed: u64,
    /// Requests served within their deadline.
    pub completed: u64,
    /// Requests served past their deadline.
    pub deadline_misses: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches executed on the fallback backend.
    pub degraded_batches: u64,
    /// Times the ladder stepped down to the fallback.
    pub fallback_switches: u64,
    /// Times the ladder stepped back up to the primary.
    pub recoveries: u64,
    /// Distribution of served latencies (ns).
    pub latencies: Histogram,
}

impl StationMetrics {
    /// Fresh metrics for a named lane.
    pub fn new(name: &str) -> Self {
        StationMetrics { name: name.to_string(), ..Default::default() }
    }

    /// Records one served latency (on-time or late).
    pub fn record_latency(&mut self, latency_ns: u64) {
        self.latencies.record(latency_ns);
    }

    /// Folds `other`'s counters and latencies into these; the name stays.
    /// `other` is destructured whole, so a field added to the struct does
    /// not compile until it is folded here.
    pub fn absorb(&mut self, other: &StationMetrics) {
        let StationMetrics {
            name: _,
            arrived,
            rejected,
            shed,
            completed,
            deadline_misses,
            batches,
            degraded_batches,
            fallback_switches,
            recoveries,
            latencies,
        } = other;
        self.arrived += arrived;
        self.rejected += rejected;
        self.shed += shed;
        self.completed += completed;
        self.deadline_misses += deadline_misses;
        self.batches += batches;
        self.degraded_batches += degraded_batches;
        self.fallback_switches += fallback_switches;
        self.recoveries += recoveries;
        self.latencies.merge(latencies);
    }

    /// Served requests (on-time + late).
    pub fn served(&self) -> u64 {
        self.completed + self.deadline_misses
    }

    /// Percentile summary of served latencies.
    pub fn summary(&self) -> LatencySummary {
        if self.latencies.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.latencies.count(),
            p50_ns: self.latencies.percentile(50.0),
            p95_ns: self.latencies.percentile(95.0),
            p99_ns: self.latencies.percentile(99.0),
            max_ns: self.latencies.max(),
        }
    }

    /// Fraction of arrived requests dropped at batch close.
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed, self.arrived)
    }

    /// Fraction of arrived requests refused at admission.
    pub fn reject_rate(&self) -> f64 {
        ratio(self.rejected, self.arrived)
    }

    /// Fraction of served requests that finished late.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.deadline_misses, self.served())
    }

    /// Served goodput (on-time responses per second of virtual time).
    pub fn goodput_qps(&self, duration_ns: u64) -> f64 {
        if duration_ns == 0 {
            return 0.0;
        }
        self.completed as f64 / (duration_ns as f64 / 1e9)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_and_rates() {
        let mut m = StationMetrics::new("lane");
        m.arrived = 10;
        m.rejected = 2;
        m.shed = 1;
        m.completed = 6;
        m.deadline_misses = 1;
        for v in [30u64, 10, 20, 40, 50, 60, 70] {
            m.record_latency(v);
        }
        let s = m.summary();
        assert_eq!(s.count, 7);
        assert_eq!(s.p50_ns, 40, "sub-64 latencies are exact");
        assert_eq!(s.max_ns, 70, "max is tracked exactly");
        assert!((m.shed_rate() - 0.1).abs() < 1e-12);
        assert!((m.reject_rate() - 0.2).abs() < 1e-12);
        assert!((m.miss_rate() - 1.0 / 7.0).abs() < 1e-12);
        assert!((m.goodput_qps(1_000_000_000) - 6.0).abs() < 1e-12);
        assert_eq!(m.goodput_qps(0), 0.0);
    }

    #[test]
    fn large_latency_percentiles_are_bounded_quantizations() {
        let mut m = StationMetrics::new("lane");
        for i in 0..1000u64 {
            m.record_latency(1_000_000 + i * 1_000);
        }
        let s = m.summary();
        let exact_p95 = 1_000_000 + 949 * 1_000;
        assert!(s.p95_ns >= exact_p95, "nearest-rank bucket upper bound cannot undershoot");
        assert!((s.p95_ns - exact_p95) as f64 / exact_p95 as f64 <= 0.04, "p95 {}", s.p95_ns);
        assert_eq!(s.max_ns, 1_999_000);
    }

    #[test]
    fn empty_metrics_are_all_zero() {
        let m = StationMetrics::new("idle");
        assert_eq!(m.summary(), LatencySummary::default());
        assert_eq!(m.shed_rate(), 0.0);
        assert_eq!(m.miss_rate(), 0.0);
    }

    #[test]
    fn merged_station_histograms_equal_sequential() {
        let mut a = StationMetrics::new("a");
        let mut b = StationMetrics::new("b");
        let mut whole = StationMetrics::new("w");
        for v in 0..200u64 {
            let v = v * 977;
            whole.record_latency(v);
            if v % 2 == 0 {
                a.record_latency(v)
            } else {
                b.record_latency(v)
            }
        }
        a.latencies.merge(&b.latencies);
        assert_eq!(a.latencies, whole.latencies);
    }

    #[test]
    fn absorb_folds_every_field() {
        let metrics = |name: &str, base: u64| {
            let mut m = StationMetrics {
                name: name.to_string(),
                arrived: base + 1,
                rejected: base + 2,
                shed: base + 3,
                completed: base + 4,
                deadline_misses: base + 5,
                batches: base + 6,
                degraded_batches: base + 7,
                fallback_switches: base + 8,
                recoveries: base + 9,
                latencies: Histogram::new(),
            };
            m.record_latency(base + 10);
            m
        };
        let mut into = metrics("lane", 0);
        into.absorb(&metrics("replica", 100));
        let StationMetrics {
            name,
            arrived,
            rejected,
            shed,
            completed,
            deadline_misses,
            batches,
            degraded_batches,
            fallback_switches,
            recoveries,
            latencies,
        } = into;
        assert_eq!(name, "lane", "the receiving lane keeps its name");
        let counters = [
            arrived,
            rejected,
            shed,
            completed,
            deadline_misses,
            batches,
            degraded_batches,
            fallback_switches,
            recoveries,
        ];
        assert_eq!(counters, [102, 104, 106, 108, 110, 112, 114, 116, 118]);
        assert_eq!((latencies.count(), latencies.min(), latencies.max()), (2, 10, 110));
    }
}
