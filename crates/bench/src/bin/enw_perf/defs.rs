//! Every metric the benchmark prints, by name: the table `BENCHMARK.json`
//! and README.md are checked against, and the store the traced pass
//! fills. A name that is not in these tables cannot be emitted.

use crate::stats::{quantile, sorted, tail_quantile};

/// An end-to-end metric: measured with tracing off, bounded.
// `better` is read by the test that holds `BENCHMARK.json` to this table.
#[cfg_attr(not(test), allow(dead_code))]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.05 },
    EndToEnd { name: "sim_time_ms", unit: "sim_ms", better: "lower", bound: 0.002 },
    EndToEnd { name: "sim_quality", unit: "fraction", better: "higher", bound: 0.03 },
];

/// A per-layer metric of the traced pass.
// `better` and `on` are read by the tests that hold `BENCHMARK.json` and
// the workloads to this table.
#[cfg_attr(not(test), allow(dead_code))]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Workload whose traced pass measures it (`all`: every one). It
    /// reads 0 on the others: they never enter that code.
    pub on: &'static str,
    /// A deterministic count or model output: repeats exactly for a
    /// seed, so two commits compare exactly.
    pub exact: bool,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    on: &'static str,
) -> Layer {
    Layer { name, unit, better, on, exact: false }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    on: &'static str,
) -> Layer {
    Layer { name, unit, better, on, exact: true }
}

const ALL: &str = "all";
const ANALOG: &str = "analog_train";
const XMANN: &str = "xmann_memory";
const TCAM: &str = "tcam_fewshot";
const RECSYS: &str = "recsys_embed";
const SERVE: &str = "serve_node";
const FLEET: &str = "fleet_diurnal";

pub const PER_LAYER: [Layer; 94] = [
    host("host.allocs_per_op", "count", "lower", ALL),
    host("host.rep_spread_frac", "fraction", "lower", ALL),
    host("host.trace_overhead_frac", "fraction", "lower", ALL),
    host("host.unattributed_frac", "fraction", "lower", ALL),
    host("host.triad_gbs", "GB/s", "higher", RECSYS),
    host("host.fma_gflops", "GFLOP/s", "higher", RECSYS),
    host("parallel.dispatch_ns", "ns", "lower", ANALOG),
    host("parallel.speedup_T", "ratio", "higher", ALL),
    host("numerics.matvec_2048.gbs", "GB/s", "higher", ANALOG),
    host("numerics.matmul_512.gflops", "GFLOP/s", "higher", ANALOG),
    host("numerics.softmax_65536.ns", "ns", "lower", XMANN),
    host("nn.mlp_predict.ns", "ns", "lower", SERVE),
    host("crossbar.tile_forward.ns", "ns", "lower", ANALOG),
    host("crossbar.tile_backward.ns", "ns", "lower", ANALOG),
    host("crossbar.tile_update.ns", "ns", "lower", ANALOG),
    host("crossbar.tiled_forward.ns", "ns", "lower", ANALOG),
    host("crossbar.step.busy_s", "s", "lower", ANALOG),
    host("crossbar.step.us", "us", "lower", ANALOG),
    host("crossbar.step.us.p99", "us", "lower", ANALOG),
    exact("crossbar.steps", "count", "higher", ANALOG),
    host("crossbar.host_ns_per_array_op", "ns", "lower", ANALOG),
    exact("crossbar.array_reads", "count", "lower", ANALOG),
    exact("crossbar.array_updates", "count", "lower", ANALOG),
    exact("crossbar.pulses", "count", "lower", ANALOG),
    exact("crossbar.checkpoint_bytes", "B", "lower", ANALOG),
    host("crossbar.checkpoint_mbs", "MB/s", "higher", ANALOG),
    host("crossbar.restore_mbs", "MB/s", "higher", ANALOG),
    host("mann.similarities.ns_per_slot", "ns", "lower", XMANN),
    host("xmann.similarity.ns_per_slot", "ns", "lower", XMANN),
    host("xmann.similarity.ns_per_slot.p90", "ns", "lower", XMANN),
    host("xmann.content_address.ns_per_slot", "ns", "lower", XMANN),
    host("xmann.content_address.ns_per_slot.p90", "ns", "lower", XMANN),
    host("xmann.soft_read.ns_per_slot", "ns", "lower", XMANN),
    host("xmann.soft_read.ns_per_slot.p90", "ns", "lower", XMANN),
    host("xmann.soft_write.ns_per_slot", "ns", "lower", XMANN),
    host("xmann.soft_write.ns_per_slot.p90", "ns", "lower", XMANN),
    host("xmann.stream_gbs", "GB/s", "higher", XMANN),
    exact("xmann.queries", "count", "higher", XMANN),
    exact("xmann.passes", "count", "lower", XMANN),
    exact("xmann.sim_energy_uj", "uJ", "lower", XMANN),
    host("cam.lsh_encode.ns", "ns", "lower", TCAM),
    host("cam.lsh_encode.ns.p99", "ns", "lower", TCAM),
    host("cam.bank_search.ns_per_word", "ns", "lower", TCAM),
    host("cam.bank_search.ns_per_word.p99", "ns", "lower", TCAM),
    host("cam.kv_update.ns", "ns", "lower", TCAM),
    host("cam.kv_update.ns.p99", "ns", "lower", TCAM),
    host("cam.bank_write.ns", "ns", "lower", TCAM),
    host("cam.search_ternary.ns_per_word", "ns", "lower", TCAM),
    host("cam.search_gbs", "GB/s", "higher", TCAM),
    exact("cam.searches", "count", "higher", TCAM),
    exact("cam.writes", "count", "lower", TCAM),
    exact("cam.sim_energy_nj", "nJ", "lower", TCAM),
    host("recsys.gather_pool.ns_per_row", "ns", "lower", RECSYS),
    host("recsys.gather_gbs", "GB/s", "higher", RECSYS),
    host("recsys.mlp.ns_per_query", "ns", "lower", RECSYS),
    host("recsys.qps_zipf", "queries/s", "higher", RECSYS),
    host("recsys.qps_uniform", "queries/s", "higher", RECSYS),
    exact("recsys.rows_gathered", "count", "higher", RECSYS),
    exact("recsys.bytes_gathered", "B", "lower", RECSYS),
    host("recsys.table_build_s", "s", "lower", RECSYS),
    host("serve.construct_s", "s", "lower", SERVE),
    host("serve.events_per_s", "1/s", "higher", SERVE),
    host("serve.events_per_s_overload", "1/s", "higher", SERVE),
    host("serve.backend.crossbar.ns_per_item", "ns", "lower", SERVE),
    host("serve.backend.digital.ns_per_item", "ns", "lower", SERVE),
    host("serve.backend.tcam.ns_per_item", "ns", "lower", SERVE),
    host("serve.backend.recsys.ns_per_item", "ns", "lower", SERVE),
    host("serve.loop_overhead_frac", "fraction", "lower", SERVE),
    host("serve.render_mbs", "MB/s", "higher", SERVE),
    host("serve.tracegen_req_per_s", "1/s", "higher", SERVE),
    exact("serve.arrived", "count", "higher", SERVE),
    exact("serve.completed", "count", "higher", SERVE),
    exact("serve.deadline_misses", "count", "lower", SERVE),
    exact("serve.shed", "count", "lower", SERVE),
    exact("serve.rejected", "count", "lower", SERVE),
    exact("serve.fallback_switches", "count", "lower", SERVE),
    exact("serve.sim_p99_us", "us", "lower", SERVE),
    host("fleet.events_per_s", "1/s", "higher", FLEET),
    host("fleet.ring_owners.ns", "ns", "lower", FLEET),
    host("fleet.ring_pick_bounded.ns", "ns", "lower", FLEET),
    host("fleet.pool_batch.ns_per_user", "ns", "lower", FLEET),
    host("fleet.rebalance.ns", "ns", "lower", FLEET),
    host("fleet.tracegen_req_per_s", "1/s", "higher", FLEET),
    exact("fleet.scale_ups", "count", "lower", FLEET),
    exact("fleet.scale_downs", "count", "lower", FLEET),
    exact("fleet.keys_moved", "count", "lower", FLEET),
    exact("fleet.moved_bytes", "B", "lower", FLEET),
    exact("fleet.cache_hit_rate", "fraction", "higher", FLEET),
    exact("fleet.replicas_peak", "count", "lower", FLEET),
    exact("fleet.dropped_frac", "fraction", "lower", FLEET),
    exact("fleet.sim_p99_us", "us", "lower", FLEET),
    host("trace.off_span.ns", "ns", "lower", SERVE),
    host("trace.summary_span.ns", "ns", "lower", SERVE),
    host("trace.hist_record.ns", "ns", "lower", SERVE),
];

/// The per-layer values of one traced pass, one slot per [`PER_LAYER`]
/// row, 0 until set.
pub struct LayerValues([f64; PER_LAYER.len()]);

impl LayerValues {
    pub fn new() -> Self {
        LayerValues([0.0; PER_LAYER.len()])
    }

    /// # Panics
    ///
    /// Panics if `name` is not a [`PER_LAYER`] row: a metric has to be
    /// declared (and so documented) before it can be printed.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = PER_LAYER.iter().position(|d| d.name == name);
        self.0[slot.unwrap_or_else(|| panic!("`{name}` is not a declared per-layer metric"))] =
            value;
    }

    /// Sets `name` to the median of `samples × scale`, and `name.p99` /
    /// `name.p90` when the sample count supports that tail and the table
    /// declares it.
    pub fn set_timing(&mut self, name: &str, samples: &[f64], scale: f64) {
        if samples.is_empty() {
            return;
        }
        let s = sorted(samples);
        self.set(name, quantile(&s, 0.5) * scale);
        if let Some(q) = tail_quantile(s.len()) {
            let tail = format!("{name}.p{:.0}", q * 100.0);
            if PER_LAYER.iter().any(|d| d.name == tail) {
                self.set(&tail, quantile(&s, q) * scale);
            }
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Layer, f64)> + '_ {
        PER_LAYER.iter().zip(self.0.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            && s.as_bytes()[0].is_ascii_alphanumeric()
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit, d.better))
            .chain(PER_LAYER.iter().map(|d| (d.name, d.unit, d.better)))
            .map(|(name, unit, better)| {
                assert!(valid_name(name), "bad metric name {name:?}");
                assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
                assert!(better == "lower" || better == "higher", "bad direction on {name}");
                name
            })
            .chain(workloads::NAMES)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for d in &PER_LAYER {
            assert!(
                d.on == ALL || workloads::NAMES.contains(&d.on),
                "{} on unknown {}",
                d.name,
                d.on
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables the program prints from.
    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();

        let e2e: Vec<_> = doc
            .get("end_to_end")
            .expect("end_to_end")
            .as_array()
            .iter()
            .map(|m| {
                assert_eq!(m.fields().len(), 4, "end_to_end entries have exactly four keys");
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string(), Some(d.bound)))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<_> = doc
            .get("per_layer")
            .expect("per_layer")
            .as_array()
            .iter()
            .map(|m| {
                assert_eq!(m.fields().len(), 3, "per_layer entries have exactly three keys");
                (text(m, "name"), text(m, "unit"), text(m, "better"))
            })
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect();
        assert_eq!(layers, want);

        let names: Vec<String> = doc
            .get("workloads")
            .expect("workloads")
            .as_array()
            .iter()
            .map(|w| {
                let why = text(w, "why");
                assert!(
                    !why.contains('\n') && why.len() <= 200 && why.len() > 20,
                    "why of {}",
                    text(w, "name")
                );
                text(w, "name")
            })
            .collect();
        assert_eq!(names, workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::RUN_SECONDS as f64),
            "`run` measures for as long as the driver does"
        );
    }

    #[test]
    fn timing_reports_the_tail_its_sample_count_supports() {
        let mut v = LayerValues::new();
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        v.set_timing("xmann.soft_read.ns_per_slot", &samples, 0.5);
        // No `.p90` row for this one: only the median is kept.
        v.set_timing("cam.bank_write.ns", &samples, 1.0);
        // 200 samples support p90, not p99.
        v.set_timing("cam.kv_update.ns", &samples, 1.0);
        let get = |name: &str| v.iter().find(|(d, _)| d.name == name).map(|(_, x)| x);
        assert_eq!(get("xmann.soft_read.ns_per_slot"), Some(50.25));
        assert_eq!(get("xmann.soft_read.ns_per_slot.p90"), Some(0.5 * 180.9));
        assert_eq!(get("cam.bank_write.ns"), Some(100.5));
        assert_eq!(get("cam.kv_update.ns.p99"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn undeclared_names_cannot_be_emitted() {
        LayerValues::new().set("cam.made_up", 1.0);
    }
}
