//! `fleet_diurnal` — the second event loop: the E19 fleet at 8 nodes /
//! 16 shards under diurnal Zipf traffic (20 periods in one virtual
//! second, so the autoscaler scales up and down and rebalances
//! repeatedly). Ring routing, and `ShardedStore` pooled reads beside
//! rebalance writes.
//!
//! The traffic is the repo's own open-loop diurnal arrival process on
//! the virtual clock, generated in set-up.

use super::{seconds, LayerCtx, Rep, Size, Workload};
use crate::defs::LayerValues;
use crate::spans::Spans;
use crate::stats::Fnv;
use enw_core::fleet::presets::{fleet_spec, trace, FleetScale, Scenario};
use enw_core::fleet::ring::HashRing;
use enw_core::fleet::shard::ShardedStore;
use enw_core::fleet::sim::{try_run, FleetReport};
use enw_core::fleet::traffic::FleetRequest;
use enw_core::trace::Histogram;
use std::hint::black_box;

const SCALE: FleetScale = FleetScale { nodes: 8, shards: 16 };

pub struct FleetDiurnal {
    size: Size,
    trace: Vec<FleetRequest>,
    tracegen_req_per_s: f64,
    last: Option<FleetReport>,
}

impl FleetDiurnal {
    pub fn build(seed: u64, size: Size) -> Self {
        let horizon_ns = size.pick(1_000_000_000, 10_000_000);
        let (trace, gen_s) = seconds(|| trace(Scenario::DiurnalZipf, SCALE, horizon_ns, seed));
        let tracegen_req_per_s = trace.len() as f64 / gen_s;
        FleetDiurnal { size, trace, tracegen_req_per_s, last: None }
    }
}

impl Workload for FleetDiurnal {
    fn rep(&mut self, spans: &mut Spans, _check: bool) -> Rep {
        let ops = self.trace.len() as u64;
        let root = spans.open("rep");
        let report = spans.time("fleet.try_run", || try_run(fleet_spec(SCALE), &self.trace));
        let work = spans.close(root);
        let Ok(report) = report else {
            return Rep { work, ops, failed: ops, sim_ns: 0.0, quality: 0.0, digest: 0 };
        };

        let mut digest = Fnv::new();
        digest.bytes(report.render().as_bytes());
        let (mut failed, mut arrived, mut on_time) = (0u64, 0u64, 0u64);
        for lane in report.lanes.iter().map(|l| &l.metrics) {
            // Every request ends in exactly one terminal state.
            let ended = lane.completed + lane.deadline_misses + lane.shed + lane.rejected;
            failed += lane.arrived.abs_diff(ended);
            arrived += lane.arrived;
            on_time += lane.completed;
        }
        failed += ops.abs_diff(arrived);
        let sim_ns = report.duration_ns as f64;
        self.last = Some(report);
        Rep { work, ops, failed, sim_ns, quality: on_time as f64 / ops as f64, digest: digest.0 }
    }

    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut LayerValues) {
        let report = self.last.as_ref().expect("a rep ran before the layer pass");
        let lanes = || report.lanes.iter();
        out.set("fleet.scale_ups", lanes().map(|l| l.scale_ups).sum::<u64>() as f64);
        out.set("fleet.scale_downs", lanes().map(|l| l.scale_downs).sum::<u64>() as f64);
        out.set("fleet.keys_moved", lanes().map(|l| l.keys_moved).sum::<u64>() as f64);
        out.set("fleet.moved_bytes", lanes().map(|l| l.moved_bytes).sum::<u64>() as f64);
        out.set("fleet.replicas_peak", lanes().map(|l| l.replicas_peak).sum::<usize>() as f64);
        let dropped: u64 = lanes().map(|l| l.metrics.shed + l.metrics.rejected).sum();
        out.set("fleet.dropped_frac", dropped as f64 / self.trace.len() as f64);
        let mut served = Histogram::new();
        lanes().for_each(|l| served.merge(&l.metrics.latencies));
        out.set("fleet.sim_p99_us", served.percentile(99.0) as f64 / 1e3);
        if let Some(shard) = &report.shard {
            let accesses = (shard.cache_hits + shard.cache_misses).max(1);
            out.set("fleet.cache_hit_rate", shard.cache_hits as f64 / accesses as f64);
        }
        out.set("fleet.tracegen_req_per_s", self.tracegen_req_per_s);
        let run_s = ctx.spans.busy_s("fleet.try_run") / ctx.traced_reps as f64;
        out.set("fleet.events_per_s", self.trace.len() as f64 / run_s);

        // Routing alone: a ring at the fleet's autoscale ceiling.
        let ring = HashRing::with_nodes(64, 2 * SCALE.nodes as u32);
        let mut key = 0u64;
        let mut owners = [0u32; 2];
        out.set(
            "fleet.ring_owners.ns",
            self.size.probe_ns(1024, || {
                key += 1;
                black_box(ring.owners_into(key, &mut owners));
            }),
        );
        // A quarter of the members report themselves full, so some picks spill.
        out.set(
            "fleet.ring_pick_bounded.ns",
            self.size.probe_ns(1024, || {
                key += 1;
                black_box(ring.pick_bounded(key, 8, |node| if node % 4 == 0 { 8 } else { 0 }));
            }),
        );

        // The store alone: pooled reads of a full recsys batch from the
        // workload's own users, then the placement pass that writes it.
        let spec = fleet_spec(SCALE);
        let store_spec = spec.store.expect("the preset fleet has a sharded lane");
        let nodes: Vec<u32> = (0..SCALE.nodes as u32).collect();
        let mut store = ShardedStore::new(store_spec, spec.seed);
        store.rebalance(&nodes);
        let users: Vec<u64> = self.trace.iter().map(|r| r.user).take(4096).collect();
        let batch = spec.lanes[1].policy.max_batch;
        let mut at = 0;
        let pool = self.size.probe_ns(64, || {
            at = (at + batch) % (users.len() - batch);
            black_box(store.pool_batch(&users[at..at + batch]));
        });
        out.set("fleet.pool_batch.ns_per_user", pool / batch as f64);
        // Alternate two memberships so every pass has owners to move.
        let mut grown = false;
        out.set(
            "fleet.rebalance.ns",
            self.size.probe_ns(8, || {
                grown = !grown;
                black_box(
                    store.rebalance(&nodes[..if grown { nodes.len() } else { nodes.len() - 1 }]),
                );
            }),
        );
    }
}
