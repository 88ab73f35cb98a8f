//! The E19 fleet-sweep configuration: lane geometry, store geometry,
//! traffic scenarios and fleet sizes.
//!
//! E19 and the integration tests must agree byte-for-byte on what "the
//! fleet" is, so the whole sweep grid lives here instead of inside the
//! bench binary. Offered load scales with fleet size (`PER_NODE_QPS` ×
//! nodes), so every cell of the size axis runs at the same nominal
//! utilization and the sweep isolates what *shape* and *placement* do
//! to tails, not raw over/under-provisioning.

use crate::autoscale::AutoscalePolicy;
use crate::shard::{ShardScheme, ShardSpec};
use crate::sim::{FleetSpec, LaneSpec};
use crate::traffic::{generate_fleet_trace, FleetRequest, UserMix, UserSampler};
use enw_serve::{BatchPolicy, ServiceModel, ShapeKind, TrafficClass};

/// Nominal aggregate offered load per node, requests/second. Sized so
/// the mean load sits comfortably inside capacity while diurnal peaks,
/// bursts and flash crowds push past it — that is what exercises the
/// autoscaler and admission control.
pub const PER_NODE_QPS: f64 = 40_000.0;

/// User catalogue size shared by every scenario mix.
pub const USERS: u64 = 65_536;

/// One cell of the fleet-size axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetScale {
    /// Initial replicas per lane.
    pub nodes: usize,
    /// Embedding shards per table.
    pub shards: usize,
}

/// The size axis E19 sweeps: small, medium, large.
pub fn scales() -> [FleetScale; 3] {
    [
        FleetScale { nodes: 2, shards: 4 },
        FleetScale { nodes: 4, shards: 8 },
        FleetScale { nodes: 8, shards: 16 },
    ]
}

/// One traffic scenario: an arrival shape paired with the user
/// popularity mix that stresses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Diurnal sinusoid over Zipf-popular users — the paper's Sec. V-B
    /// access model breathing through a simulated day.
    DiurnalZipf,
    /// On/off bursts over uniform users — stresses batching and the
    /// autoscaler's cooldown pacing.
    BurstyUniform,
    /// A flash crowd concentrated on a small hot set — the adversarial
    /// case for the bounded-load router and hot-shard placement.
    FlashHotSet,
}

impl Scenario {
    /// Every scenario, in sweep order.
    pub fn all() -> [Scenario; 3] {
        [Scenario::DiurnalZipf, Scenario::BurstyUniform, Scenario::FlashHotSet]
    }

    /// Stable name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::DiurnalZipf => "diurnal_zipf",
            Scenario::BurstyUniform => "bursty_uniform",
            Scenario::FlashHotSet => "flash_hot_set",
        }
    }

    /// The arrival shape at mean rate `qps`. Bursty keeps the same mean
    /// as the others ((2.5·on + 0.25·off)/(on+off) = 1), so the size
    /// axis stays comparable across scenarios.
    pub fn shape(self, qps: f64) -> ShapeKind {
        match self {
            Scenario::DiurnalZipf => {
                ShapeKind::Diurnal { base_qps: qps, swing: 0.6, period_s: 0.05 }
            }
            Scenario::BurstyUniform => {
                ShapeKind::Bursty { hi_qps: 2.5 * qps, lo_qps: 0.25 * qps, on_s: 0.01, off_s: 0.02 }
            }
            Scenario::FlashHotSet => ShapeKind::FlashCrowd {
                base_qps: 0.8 * qps,
                spike: 4.0,
                start_s: 0.02,
                length_s: 0.01,
            },
        }
    }

    /// The user popularity mix.
    pub fn mix(self) -> UserMix {
        match self {
            Scenario::DiurnalZipf => UserMix::Zipf { users: USERS, alpha: 1.0 },
            Scenario::BurstyUniform => UserMix::Uniform { users: USERS },
            Scenario::FlashHotSet => UserMix::HotSet { users: USERS, hot: 64, hot_share: 0.5 },
        }
    }
}

/// The traffic mix: half digital MLP inference, half sharded recsys,
/// with recsys given the looser deadline its fan-out needs.
pub fn classes() -> [TrafficClass; 2] {
    [
        TrafficClass { station: 0, weight: 1.0, deadline_ns: 4_000_000 },
        TrafficClass { station: 1, weight: 1.0, deadline_ns: 6_000_000 },
    ]
}

fn autoscale(nodes: usize, p99_slo_ns: u64) -> AutoscalePolicy {
    AutoscalePolicy {
        min_replicas: 1,
        max_replicas: nodes * 2,
        epoch_ns: 2_000_000,
        p99_slo_ns,
        up_queue_frac: 0.5,
        down_queue_frac: 0.1,
        calm_epochs_to_downscale: 3,
        cooldown_epochs: 1,
    }
}

/// The two-lane fleet at one cell of the size axis: `nodes` initial
/// replicas per lane, the embedding store split `shards` ways.
pub fn fleet_spec(scale: FleetScale) -> FleetSpec {
    FleetSpec {
        lanes: vec![
            LaneSpec {
                name: "mlp".to_string(),
                service: ServiceModel { setup_ns: 40_000, per_item_ns: 15_000 },
                policy: BatchPolicy { max_batch: 8, max_wait_ns: 200_000, queue_cap: 32 },
                autoscale: autoscale(scale.nodes, 2_000_000),
                initial_replicas: scale.nodes,
                vnodes: 64,
                fanout_ns: 0,
                miss_ns: 0,
                sharded: false,
            },
            LaneSpec {
                name: "recsys".to_string(),
                service: ServiceModel { setup_ns: 60_000, per_item_ns: 20_000 },
                policy: BatchPolicy { max_batch: 16, max_wait_ns: 250_000, queue_cap: 64 },
                autoscale: autoscale(scale.nodes, 3_000_000),
                initial_replicas: scale.nodes,
                vnodes: 64,
                fanout_ns: 2_000,
                miss_ns: 500,
                sharded: true,
            },
        ],
        store: Some(ShardSpec {
            tables: 4,
            rows_per_table: 4096,
            dim: 16,
            lookups_per_table: 4,
            shards: scale.shards,
            replication: 2,
            scheme: ShardScheme::Range,
            hot_fraction: 0.25,
            cache_rows: 256,
        }),
        seed: 19,
    }
}

/// One cell's arrival trace: `scenario`'s shape at `PER_NODE_QPS ×
/// nodes`, over its popularity mix.
pub fn trace(
    scenario: Scenario,
    scale: FleetScale,
    horizon_ns: u64,
    seed: u64,
) -> Vec<FleetRequest> {
    let qps = PER_NODE_QPS * scale.nodes as f64;
    let users = UserSampler::new(scenario.mix());
    generate_fleet_trace(&scenario.shape(qps), horizon_ns, seed, &classes(), &users)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::try_run;

    #[test]
    fn every_cell_of_the_grid_builds_and_serves() {
        // A fast pass over the whole grid at a short horizon: specs
        // validate, traces fit, nothing is lost.
        for scale in scales() {
            for scenario in Scenario::all() {
                let t = trace(scenario, scale, 10_000_000, 19);
                assert!(!t.is_empty(), "{} at {:?} generated no traffic", scenario.name(), scale);
                let report = try_run(fleet_spec(scale), &t)
                    .unwrap_or_else(|e| panic!("{} at {scale:?}: {e}", scenario.name()));
                let arrived: u64 = report.lanes.iter().map(|l| l.metrics.arrived).sum();
                assert_eq!(arrived as usize, t.len());
            }
        }
    }

    #[test]
    fn bursty_mean_matches_the_other_scenarios() {
        let qps = 10_000.0;
        for s in Scenario::all() {
            let mean = s.shape(qps).mean_qps();
            assert!(
                (mean - qps).abs() < 0.21 * qps,
                "{}: mean {mean} strays from nominal {qps}",
                s.name()
            );
        }
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let names: Vec<_> = Scenario::all().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["diurnal_zipf", "bursty_uniform", "flash_hot_set"]);
    }
}
