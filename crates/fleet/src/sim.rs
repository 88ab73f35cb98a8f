//! The fleet simulator: replicated lanes, routed admission, autoscaling
//! and sharded embedding service on one virtual clock.
//!
//! Each lane runs N replica nodes behind its own consistent-hash ring.
//! An arrival hashes its user key onto the ring; the bounded-load pick
//! walks clockwise past full replicas and rejects only when the whole
//! lane is at capacity (admission control). Replicas micro-batch their
//! queues exactly like `serve` stations (size-or-timeout closing,
//! deadline shedding at batch start); a sharded lane additionally pays
//! for its batch's embedding fan-out — distinct shard owners touched and
//! cache misses, priced per event — through the
//! [`ShardedStore`].
//!
//! At every control epoch the per-lane [`Autoscaler`] reads queue depth,
//! the epoch p99 and drop counts, and may add or retire one replica;
//! membership changes pay a measured rebalance cost (moved probe keys on
//! the ring, moved shard bytes in the store). Event order at one instant
//! is fixed — completions, control, arrivals, batch starts — so a whole
//! fleet run is a pure function of `(spec, trace)`, bit-identical across
//! reruns and `ENW_THREADS` settings.
//!
//! The loop does only the work an instant owes. A wake-up heap holds one
//! live entry per replica that owes the loop work (its batch's
//! completion, or the instant its oldest request's wait closes a batch),
//! so the next instant is the heap's top, not a scan of every replica;
//! and at that instant only the replicas woken then, plus those admitted
//! into, complete or start batches, in `(lane, id)` order — the order a
//! sweep over every replica visits them in.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::autoscale::{AutoscalePolicy, Autoscaler, EpochSignals, ScaleDecision};
use crate::ring::{key_point, HashRing};
use crate::shard::{ShardSpec, ShardedStore};
use crate::traffic::FleetRequest;
use enw_numerics::error::{check, ConfigError};
use enw_serve::{check_trace, BatchPolicy, ServeError, ServiceModel, StationMetrics, VirtualClock};
use enw_trace::Histogram;

/// Probe keys hashed to price a membership change (`keys_moved` is the
/// count whose primary changed, out of this many).
const REBALANCE_PROBES: u64 = 2048;

/// [`Lane::position`] entry of a retired replica id.
const RETIRED: u32 = u32::MAX;

/// A wake-up: `(time, lane, replica id)`, earliest first.
type Wakeup = Reverse<(u64, usize, u32)>;

/// One lane's static configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSpec {
    /// Lane name for reports.
    pub name: String,
    /// Per-batch service pricing on every replica.
    pub service: ServiceModel,
    /// Per-replica batching and queue capacity.
    pub policy: BatchPolicy,
    /// Scaling thresholds; also fixes the lane's control epoch.
    pub autoscale: AutoscalePolicy,
    /// Replicas at t = 0 (must sit inside the autoscale bounds).
    pub initial_replicas: usize,
    /// Virtual points per replica on the routing ring.
    pub vnodes: u32,
    /// Extra service ns per distinct shard owner a batch touches
    /// (sharded lanes; the RPC fan-out cost).
    pub fanout_ns: u64,
    /// Extra service ns per embedding-cache miss (sharded lanes; the
    /// DRAM detour).
    pub miss_ns: u64,
    /// Whether this lane serves through the fleet's sharded store.
    pub sharded: bool,
}

/// The whole cluster's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Lanes, addressed by index from [`FleetRequest::lane`].
    pub lanes: Vec<LaneSpec>,
    /// Embedding-store geometry; present iff exactly one lane is
    /// `sharded`.
    pub store: Option<ShardSpec>,
    /// Seed for the store's tables.
    pub seed: u64,
}

/// One replica node of a lane.
#[derive(Debug)]
struct Replica {
    id: u32,
    queue: VecDeque<FleetRequest>,
    batch: Vec<FleetRequest>,
    done_at: Option<u64>,
    /// Time of this replica's live wake-up entry, if it has one.
    wake: Option<u64>,
    metrics: StationMetrics,
}

impl Replica {
    fn new(lane: &str, id: u32, policy: &BatchPolicy) -> Self {
        Replica {
            id,
            queue: VecDeque::with_capacity(policy.queue_cap),
            batch: Vec::with_capacity(policy.max_batch),
            done_at: None,
            wake: None,
            metrics: StationMetrics::new(&format!("{lane}/n{id}")),
        }
    }

    /// When the loop next owes this replica work: its batch's
    /// completion, else the instant its oldest request's wait closes a
    /// batch; `None` when idle with an empty queue.
    fn due_at(&self, max_wait_ns: u64) -> Option<u64> {
        self.done_at.or_else(|| self.queue.front().map(|r| r.arrival_ns + max_wait_ns))
    }
}

/// One lane's live state.
#[derive(Debug)]
struct Lane {
    spec: LaneSpec,
    ring: HashRing,
    /// Live replicas, ascending id (ids are never reused).
    replicas: Vec<Replica>,
    /// Position in `replicas` of every id issued so far, [`RETIRED`]
    /// once retired.
    position: Vec<u32>,
    next_id: u32,
    scaler: Autoscaler,
    next_epoch_ns: u64,
    epoch_hist: Histogram,
    epoch_served: u64,
    epoch_dropped: u64,
    scale_ups: u64,
    scale_downs: u64,
    keys_moved: u64,
    moved_bytes: u64,
    /// Retired replicas' metrics plus lane-level rejections.
    folded: StationMetrics,
    checksum: u64,
    /// Integral of live replicas over virtual time, node·ns.
    node_ns: u128,
    last_t_ns: u64,
    replicas_peak: usize,
    /// Batch user-key scratch (reused; capacity `max_batch`).
    users: Vec<u64>,
}

impl Lane {
    fn new(spec: LaneSpec) -> Self {
        let scaler = Autoscaler::new(spec.autoscale);
        let ring = HashRing::with_nodes(spec.vnodes, spec.initial_replicas as u32);
        let replicas = (0..spec.initial_replicas as u32)
            .map(|id| Replica::new(&spec.name, id, &spec.policy))
            .collect();
        Lane {
            next_epoch_ns: spec.autoscale.epoch_ns,
            next_id: spec.initial_replicas as u32,
            replicas_peak: spec.initial_replicas,
            folded: StationMetrics::new(&spec.name),
            users: Vec::with_capacity(spec.policy.max_batch),
            position: (0..spec.initial_replicas as u32).collect(),
            spec,
            ring,
            replicas,
            scaler,
            epoch_hist: Histogram::new(),
            epoch_served: 0,
            epoch_dropped: 0,
            scale_ups: 0,
            scale_downs: 0,
            keys_moved: 0,
            moved_bytes: 0,
            checksum: 0,
            node_ns: 0,
            last_t_ns: 0,
        }
    }

    /// Closes the node·time integral up to `t` (call before membership
    /// changes and once at the end of the run).
    fn integrate_to(&mut self, t: u64) {
        self.node_ns += (t - self.last_t_ns) as u128 * self.replicas.len() as u128;
        self.last_t_ns = t;
    }

    fn queued(&self) -> usize {
        self.replicas.iter().map(|r| r.queue.len()).sum()
    }

    /// Where replica `id` sits in `replicas`, if it is live.
    fn slot(&self, id: u32) -> Option<usize> {
        match self.position.get(id as usize) {
            Some(&p) if p != RETIRED => Some(p as usize),
            _ => None,
        }
    }

    /// Whether replica `id` is live with its wake-up entry at `w`.
    fn wakes_at(&self, id: u32, w: u64) -> bool {
        self.slot(id).is_some_and(|p| self.replicas[p].wake == Some(w))
    }

    /// Finishes replica `rp`'s batch if it is due at `t`: on-time
    /// requests complete, late ones count as deadline misses; either way
    /// the latency lands in the replica's and the epoch's histograms.
    fn complete(&mut self, rp: usize, t: u64) {
        let rep = &mut self.replicas[rp];
        if rep.done_at != Some(t) {
            return;
        }
        rep.done_at = None;
        for r in rep.batch.drain(..) {
            let latency = t - r.arrival_ns;
            if t > r.deadline_ns {
                rep.metrics.deadline_misses += 1;
            } else {
                rep.metrics.completed += 1;
            }
            rep.metrics.record_latency(latency);
            self.epoch_hist.record(latency);
            self.epoch_served += 1;
            if !self.spec.sharded {
                // Sharded lanes fold their pooled-output bits at batch
                // start; plain lanes fold completion identities here.
                self.checksum = self.checksum.rotate_left(1) ^ key_point(r.user ^ t);
            }
        }
    }

    /// Closes batches on replica `rp` while it is idle and its queue is
    /// full enough or its oldest request has waited out `max_wait_ns`;
    /// requests already past their deadline are shed instead of served.
    /// `store` is the sharded store when this is the sharded lane.
    fn start_batches(&mut self, rp: usize, t: u64, mut store: Option<&mut ShardedStore>) {
        let policy = self.spec.policy;
        loop {
            let rep = &mut self.replicas[rp];
            if rep.done_at.is_some() {
                break;
            }
            let Some(oldest) = rep.queue.front().map(|r| r.arrival_ns) else { break };
            let close = rep.queue.len() >= policy.max_batch || oldest + policy.max_wait_ns <= t;
            if !close {
                break;
            }
            rep.batch.clear();
            let mut shed_now = 0u64;
            while rep.batch.len() < policy.max_batch {
                let Some(r) = rep.queue.pop_front() else { break };
                if r.deadline_ns <= t {
                    rep.metrics.shed += 1;
                    shed_now += 1;
                } else {
                    rep.batch.push(r);
                }
            }
            self.epoch_dropped += shed_now;
            if rep.batch.is_empty() {
                // Everything pulled was already dead; the queue may
                // still hold serviceable requests.
                continue;
            }
            let mut ns = self.spec.service.ns(rep.batch.len());
            if let Some(st) = store.as_deref_mut() {
                self.users.clear();
                self.users.extend(rep.batch.iter().map(|r| r.user));
                let cost = st.pool_batch(&self.users);
                ns = ns
                    .saturating_add(self.spec.fanout_ns * cost.owner_touches)
                    .saturating_add(self.spec.miss_ns * cost.misses);
                self.checksum = self.checksum.rotate_left(1) ^ cost.checksum;
            }
            rep.metrics.batches += 1;
            rep.done_at = Some(t.saturating_add(ns.max(1)));
        }
    }
}

/// Everything one run produced for one lane.
#[derive(Debug, Clone)]
pub struct LaneReport {
    /// Lane name.
    pub name: String,
    /// Aggregated counters and latencies over every replica that ever
    /// served (retired ones included) plus lane-level rejections.
    pub metrics: StationMetrics,
    /// Replicas live when the run ended.
    pub replicas_final: usize,
    /// Most replicas ever live.
    pub replicas_peak: usize,
    /// Applied scale-up events.
    pub scale_ups: u64,
    /// Applied scale-down events.
    pub scale_downs: u64,
    /// Probe keys (of `REBALANCE_PROBES` per event) whose primary
    /// moved across all membership changes — the routing rebalance cost.
    pub keys_moved: u64,
    /// Shard bytes copied for this lane's membership changes (sharded
    /// lanes only).
    pub moved_bytes: u64,
    /// Integral of live replicas over the run, in node·seconds — the
    /// denominator of goodput-per-node.
    pub node_seconds: f64,
    /// Order-sensitive fold of every served output (pooled embedding
    /// bits on sharded lanes, completion identities elsewhere).
    pub checksum: u64,
}

impl LaneReport {
    /// On-time completions per node-second — the paper-facing
    /// deployment-efficiency metric (E19).
    pub fn goodput_per_node_qps(&self) -> f64 {
        if self.node_seconds <= 0.0 {
            0.0
        } else {
            self.metrics.completed as f64 / self.node_seconds
        }
    }
}

/// End-of-run state of the sharded store.
#[derive(Debug, Clone, Copy)]
pub struct ShardReport {
    /// Total `(table, shard)` slots.
    pub shards: usize,
    /// Slots flagged hot by the last placement pass.
    pub hot_shards: usize,
    /// Aggregate cache hits across shards.
    pub cache_hits: u64,
    /// Aggregate cache misses across shards.
    pub cache_misses: u64,
    /// Bytes pinned across owners, replicas included.
    pub replicated_bytes: u64,
    /// Unreplicated table bytes.
    pub table_bytes: u64,
}

/// The result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// When the last work drained, virtual ns.
    pub duration_ns: u64,
    /// Per-lane results, in lane order.
    pub lanes: Vec<LaneReport>,
    /// Store state, when the fleet had a sharded lane.
    pub shard: Option<ShardReport>,
}

impl FleetReport {
    /// Canonical byte rendering — what the determinism tests and E19's
    /// rerun check fingerprint. Every field that could drift is in here.
    pub fn render(&self) -> String {
        let mut s = format!("fleet duration_ns={}\n", self.duration_ns);
        for l in &self.lanes {
            let p = l.metrics.summary();
            s.push_str(&format!(
                "lane {} replicas={} peak={} ups={} downs={} keys_moved={} moved_bytes={}\n  \
                 arrived={} completed={} misses={} shed={} rejected={} batches={}\n  \
                 p50={} p95={} p99={} max={} node_s={:.6} goodput_per_node={:.3} \
                 checksum={:016x}\n",
                l.name,
                l.replicas_final,
                l.replicas_peak,
                l.scale_ups,
                l.scale_downs,
                l.keys_moved,
                l.moved_bytes,
                l.metrics.arrived,
                l.metrics.completed,
                l.metrics.deadline_misses,
                l.metrics.shed,
                l.metrics.rejected,
                l.metrics.batches,
                p.p50_ns,
                p.p95_ns,
                p.p99_ns,
                p.max_ns,
                l.node_seconds,
                l.goodput_per_node_qps(),
                l.checksum,
            ));
        }
        if let Some(sh) = &self.shard {
            s.push_str(&format!(
                "shard slots={} hot={} hits={} misses={} replicated_bytes={} table_bytes={}\n",
                sh.shards,
                sh.hot_shards,
                sh.cache_hits,
                sh.cache_misses,
                sh.replicated_bytes,
                sh.table_bytes,
            ));
        }
        s
    }
}

/// A built, validated cluster ready to serve traces.
#[derive(Debug)]
pub struct Fleet {
    lanes: Vec<Lane>,
    store: Option<ShardedStore>,
    sharded_lane: Option<usize>,
}

impl Fleet {
    /// Builds the cluster: rings, initial replicas, and (for a sharded
    /// lane) the embedding store placed onto the initial replica set.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an empty spec, and when a lane's
    /// batch policy, its autoscale policy or the store spec does not
    /// validate, or replica bounds or store/lane wiring are inconsistent.
    pub fn try_new(spec: FleetSpec) -> Result<Fleet, ConfigError> {
        check(!spec.lanes.is_empty(), "a fleet needs at least one lane")?;
        let sharded: Vec<usize> =
            spec.lanes.iter().enumerate().filter_map(|(i, l)| l.sharded.then_some(i)).collect();
        check(spec.store.is_some() || sharded.is_empty(), "sharded lanes need a store spec")?;
        if spec.store.is_some() && sharded.len() != 1 {
            let reason = format!("a store needs exactly one sharded lane, found {}", sharded.len());
            return Err(ConfigError { reason: reason.into() });
        }
        for l in &spec.lanes {
            let a = &l.autoscale;
            let lane_error = |e: ConfigError| ConfigError {
                reason: format!("lane {}: {}", l.name, e.reason).into(),
            };
            l.policy.validate().map_err(lane_error)?;
            a.validate().map_err(lane_error)?;
            if l.initial_replicas < a.min_replicas || l.initial_replicas > a.max_replicas {
                return Err(ConfigError {
                    reason: format!(
                        "lane {}: {} initial replicas outside [{}, {}]",
                        l.name, l.initial_replicas, a.min_replicas, a.max_replicas
                    )
                    .into(),
                });
            }
        }
        if let Some(store) = &spec.store {
            store.validate()?;
        }
        let seed = spec.seed;
        let mut store = spec.store.map(|s| ShardedStore::new(s, seed));
        let lanes: Vec<Lane> = spec.lanes.into_iter().map(Lane::new).collect();
        let sharded_lane = sharded.first().copied();
        if let (Some(st), Some(li)) = (store.as_mut(), sharded_lane) {
            // Initial placement: not charged as rebalance cost.
            st.rebalance(lanes[li].ring.nodes());
        }
        Ok(Fleet { lanes, store, sharded_lane })
    }

    /// Serves `trace` to completion and reports.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnsortedTrace`] or
    /// [`ServeError::UnknownStation`] (a station is a lane here) when the
    /// trace does not fit this fleet, by `enw-serve`'s own trace check;
    /// the fleet itself is consumed either way.
    pub fn try_run(mut self, trace: &[FleetRequest]) -> Result<FleetReport, ServeError> {
        check_trace(trace.iter().map(|r| (r.id, r.arrival_ns, r.lane)), self.lanes.len())?;

        let mut clock = VirtualClock::new();
        let mut next_arrival = 0usize;
        // Every replica whose `due_at` is set has a live entry at that
        // time (its `wake`); an entry superseded before it comes due goes
        // stale and is dropped when it reaches the top.
        let most: usize = self.lanes.iter().map(|l| l.spec.autoscale.max_replicas).sum();
        let mut wakeups: BinaryHeap<Wakeup> = BinaryHeap::with_capacity(2 * most);
        // The replicas an instant owes work, as `(lane, id)`.
        let mut due: Vec<(usize, u32)> = Vec::with_capacity(2 * most);
        loop {
            while let Some(&Reverse((w, li, id))) = wakeups.peek() {
                if self.lanes[li].wakes_at(id, w) {
                    break;
                }
                wakeups.pop();
            }
            let woken = wakeups.peek().map(|&Reverse((w, _, _))| w);
            let arrival = trace.get(next_arrival).map(|r| r.arrival_ns);
            let work_left = arrival.is_some() || woken.is_some();
            let epoch = self.lanes.iter().map(|l| l.next_epoch_ns).min().filter(|_| work_left);
            let Some(t) = [arrival, woken, epoch].into_iter().flatten().min() else { break };
            clock.advance_to(t);

            due.clear();
            while let Some(&Reverse((w, li, id))) = wakeups.peek() {
                if w != t {
                    break;
                }
                wakeups.pop();
                let lane = &mut self.lanes[li];
                if let Some(rp) = lane.slot(id).filter(|&rp| lane.replicas[rp].wake == Some(t)) {
                    lane.replicas[rp].wake = None;
                    due.push((li, id));
                }
            }
            // Ids rise with position, so `(lane, id)` order is the order
            // a sweep over every replica would visit them in — what the
            // LRU, the checksums and the epoch histograms see.
            due.sort_unstable();
            for &(li, id) in &due {
                let lane = &mut self.lanes[li];
                if let Some(rp) = lane.slot(id) {
                    lane.complete(rp, t);
                }
            }
            self.control(t);
            next_arrival = self.admit(trace, next_arrival, t, &mut due);
            due.sort_unstable();
            due.dedup();
            for &(li, id) in &due {
                let lane = &mut self.lanes[li];
                if let Some(rp) = lane.slot(id) {
                    let store =
                        if self.sharded_lane == Some(li) { self.store.as_mut() } else { None };
                    lane.start_batches(rp, t, store);
                }
            }
            for &(li, id) in &due {
                let lane = &mut self.lanes[li];
                // A replica retired by this instant's control owes nothing.
                let Some(rp) = lane.slot(id) else { continue };
                let max_wait_ns = lane.spec.policy.max_wait_ns;
                let rep = &mut lane.replicas[rp];
                let at = rep.due_at(max_wait_ns);
                if at == rep.wake {
                    continue;
                }
                rep.wake = at;
                let Some(w) = at else { continue };
                if wakeups.len() == wakeups.capacity() {
                    let lanes = &self.lanes;
                    wakeups.retain(|&Reverse((w, li, id))| lanes[li].wakes_at(id, w));
                }
                wakeups.push(Reverse((w, li, id)));
            }
        }
        Ok(self.finish(clock.now_ns()))
    }

    /// Closes the run's books at `t_end` and reports.
    fn finish(mut self, t_end: u64) -> FleetReport {
        for lane in &mut self.lanes {
            lane.integrate_to(t_end);
        }
        let shard = self.store.as_ref().map(|st| ShardReport {
            shards: st.spec().total_shards(),
            hot_shards: st.hot_shards(),
            cache_hits: st.cache_stats().hits,
            cache_misses: st.cache_stats().misses,
            replicated_bytes: st.replicated_bytes(),
            table_bytes: st.bytes(),
        });
        let lanes = self
            .lanes
            .into_iter()
            .map(|lane| {
                let mut metrics = lane.folded;
                for rep in &lane.replicas {
                    metrics.absorb(&rep.metrics);
                }
                LaneReport {
                    name: lane.spec.name,
                    metrics,
                    replicas_final: lane.replicas.len(),
                    replicas_peak: lane.replicas_peak,
                    scale_ups: lane.scale_ups,
                    scale_downs: lane.scale_downs,
                    keys_moved: lane.keys_moved,
                    moved_bytes: lane.moved_bytes,
                    node_seconds: lane.node_ns as f64 / 1e9,
                    checksum: lane.checksum,
                }
            })
            .collect();
        FleetReport { duration_ns: t_end, lanes, shard }
    }

    /// Runs every lane whose control epoch closes at `t`.
    fn control(&mut self, t: u64) {
        for (li, lane) in self.lanes.iter_mut().enumerate() {
            if t != lane.next_epoch_ns {
                continue;
            }
            let signals = EpochSignals {
                replicas: lane.replicas.len(),
                queued: lane.queued(),
                queue_cap: lane.replicas.len() * lane.spec.policy.queue_cap,
                epoch_p99_ns: lane.epoch_hist.percentile(99.0),
                served: lane.epoch_served,
                dropped: lane.epoch_dropped,
            };
            let sharded = self.sharded_lane == Some(li);
            match lane.scaler.observe(&signals) {
                ScaleDecision::Up => {
                    lane.integrate_to(t);
                    // Ids are issued in order, so `id` indexes the end
                    // of `position`.
                    let id = lane.next_id;
                    lane.next_id += 1;
                    lane.ring.add_node(id);
                    lane.position.push(lane.replicas.len() as u32);
                    lane.replicas.push(Replica::new(&lane.spec.name, id, &lane.spec.policy));
                    lane.replicas_peak = lane.replicas_peak.max(lane.replicas.len());
                    lane.scale_ups += 1;
                    lane.keys_moved += lane.ring.keys_owned(id, REBALANCE_PROBES);
                    if sharded {
                        if let Some(st) = self.store.as_mut() {
                            lane.moved_bytes += st.rebalance(lane.ring.nodes()).moved_bytes;
                        }
                    }
                    enw_trace::counter_add("fleet.scale_ups", 1);
                }
                ScaleDecision::Down => {
                    // Retire the highest-id replica that is idle with an
                    // empty queue; if none is drainable, drop the
                    // decision (never kill in-flight work).
                    let candidate = lane
                        .replicas
                        .iter()
                        .rposition(|r| r.done_at.is_none() && r.queue.is_empty());
                    if let Some(pos) = candidate {
                        lane.integrate_to(t);
                        let rep = lane.replicas.remove(pos);
                        lane.position[rep.id as usize] = RETIRED;
                        for later in &lane.replicas[pos..] {
                            lane.position[later.id as usize] -= 1;
                        }
                        lane.keys_moved += lane.ring.keys_owned(rep.id, REBALANCE_PROBES);
                        lane.ring.remove_node(rep.id);
                        lane.folded.absorb(&rep.metrics);
                        lane.scale_downs += 1;
                        if sharded {
                            if let Some(st) = self.store.as_mut() {
                                lane.moved_bytes += st.rebalance(lane.ring.nodes()).moved_bytes;
                            }
                        }
                        enw_trace::counter_add("fleet.scale_downs", 1);
                    }
                }
                ScaleDecision::Hold => {}
            }
            lane.epoch_hist.clear();
            lane.epoch_served = 0;
            lane.epoch_dropped = 0;
            lane.next_epoch_ns += lane.spec.autoscale.epoch_ns;
        }
    }

    /// Routes every arrival at `t`: bounded-load pick over the lane's
    /// ring, reject when every replica's queue is at capacity. Each
    /// replica admitted into is listed in `admitted` as `(lane, id)`.
    fn admit(
        &mut self,
        trace: &[FleetRequest],
        mut i: usize,
        t: u64,
        admitted: &mut Vec<(usize, u32)>,
    ) -> usize {
        while let Some(&r) = trace.get(i) {
            if r.arrival_ns != t {
                break;
            }
            i += 1;
            let lane = &mut self.lanes[r.lane];
            let cap = lane.spec.policy.queue_cap;
            let pick = {
                let l = &*lane;
                // Ring and replica set are kept in lockstep; treat a
                // stranger as full just in case.
                l.ring.pick_bounded(r.user, cap, |id| {
                    l.slot(id).map_or(cap, |p| l.replicas[p].queue.len())
                })
            };
            match pick {
                Some(id) => {
                    if let Some(p) = lane.slot(id) {
                        let rep = &mut lane.replicas[p];
                        rep.metrics.arrived += 1;
                        rep.queue.push_back(r);
                        admitted.push((r.lane, id));
                    }
                }
                None => {
                    lane.folded.arrived += 1;
                    lane.folded.rejected += 1;
                    lane.epoch_dropped += 1;
                }
            }
        }
        i
    }
}

/// Convenience: build and run in one call.
///
/// # Errors
///
/// Propagates [`Fleet::try_new`] and [`Fleet::try_run`] errors.
pub fn try_run(spec: FleetSpec, trace: &[FleetRequest]) -> Result<FleetReport, ServeError> {
    Fleet::try_new(spec)?.try_run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::tests::moved_keys;
    use crate::shard::ShardScheme;
    use crate::traffic::{generate_fleet_trace, UserMix, UserSampler};
    use enw_numerics::rng::Rng64;
    use enw_serve::{ShapeKind, TrafficClass};

    /// The loop [`Fleet::try_run`] replaced, kept as its oracle: every
    /// event scans all replicas for the next time, then completes and
    /// starts batches by sweeping them all.
    impl Fleet {
        fn try_run_sweep(mut self, trace: &[FleetRequest]) -> FleetReport {
            let mut clock = VirtualClock::new();
            let mut next_arrival = 0usize;
            let mut admitted = Vec::new();
            loop {
                let busy = |l: &Lane| {
                    l.replicas.iter().any(|r| r.done_at.is_some() || !r.queue.is_empty())
                };
                let work_left = next_arrival < trace.len() || self.lanes.iter().any(busy);
                let mut next = trace.get(next_arrival).map(|r| r.arrival_ns);
                for lane in &self.lanes {
                    let wait = lane.spec.policy.max_wait_ns;
                    for at in lane.replicas.iter().filter_map(|r| r.due_at(wait)) {
                        next = Some(next.map_or(at, |n| n.min(at)));
                    }
                    if work_left {
                        next = Some(next.map_or(lane.next_epoch_ns, |n| n.min(lane.next_epoch_ns)));
                    }
                }
                let Some(t) = next else { break };
                clock.advance_to(t);
                for lane in &mut self.lanes {
                    for rp in 0..lane.replicas.len() {
                        lane.complete(rp, t);
                    }
                }
                self.control(t);
                admitted.clear();
                next_arrival = self.admit(trace, next_arrival, t, &mut admitted);
                for (li, lane) in self.lanes.iter_mut().enumerate() {
                    let mut store =
                        if self.sharded_lane == Some(li) { self.store.as_mut() } else { None };
                    for rp in 0..lane.replicas.len() {
                        lane.start_batches(rp, t, store.as_deref_mut());
                    }
                }
            }
            self.finish(clock.now_ns())
        }
    }

    fn scale(min: usize, max: usize) -> AutoscalePolicy {
        AutoscalePolicy {
            min_replicas: min,
            max_replicas: max,
            epoch_ns: 2_000_000,
            p99_slo_ns: 1_500_000,
            up_queue_frac: 0.5,
            down_queue_frac: 0.1,
            calm_epochs_to_downscale: 3,
            cooldown_epochs: 1,
        }
    }

    fn plain_lane(max_replicas: usize) -> LaneSpec {
        LaneSpec {
            name: "mlp".to_string(),
            service: ServiceModel { setup_ns: 30_000, per_item_ns: 10_000 },
            policy: BatchPolicy { max_batch: 8, max_wait_ns: 200_000, queue_cap: 32 },
            autoscale: scale(1, max_replicas),
            initial_replicas: 2,
            vnodes: 32,
            fanout_ns: 0,
            miss_ns: 0,
            sharded: false,
        }
    }

    fn sharded_lane(max_replicas: usize) -> LaneSpec {
        LaneSpec {
            name: "recsys".to_string(),
            service: ServiceModel { setup_ns: 40_000, per_item_ns: 12_000 },
            policy: BatchPolicy { max_batch: 8, max_wait_ns: 200_000, queue_cap: 32 },
            autoscale: scale(1, max_replicas),
            initial_replicas: 2,
            vnodes: 32,
            fanout_ns: 4_000,
            miss_ns: 1_000,
            sharded: true,
        }
    }

    fn store() -> ShardSpec {
        ShardSpec {
            tables: 2,
            rows_per_table: 512,
            dim: 8,
            lookups_per_table: 4,
            shards: 4,
            replication: 2,
            scheme: ShardScheme::Range,
            hot_fraction: 0.25,
            cache_rows: 64,
        }
    }

    fn spec(max_replicas: usize) -> FleetSpec {
        FleetSpec {
            lanes: vec![plain_lane(max_replicas), sharded_lane(max_replicas)],
            store: Some(store()),
            seed: 19,
        }
    }

    fn trace(qps: f64, horizon_ns: u64, seed: u64) -> Vec<FleetRequest> {
        let users = UserSampler::new(UserMix::Zipf { users: 4096, alpha: 1.0 });
        let classes = [
            TrafficClass { station: 0, weight: 1.0, deadline_ns: 3_000_000 },
            TrafficClass { station: 1, weight: 1.0, deadline_ns: 4_000_000 },
        ];
        generate_fleet_trace(&ShapeKind::Poisson { qps }, horizon_ns, seed, &classes, &users)
    }

    #[test]
    fn light_load_serves_everything_on_time() {
        let report = try_run(spec(4), &trace(20_000.0, 30_000_000, 1)).expect("valid spec");
        for lane in &report.lanes {
            assert!(lane.metrics.arrived > 100, "{} saw no traffic", lane.name);
            assert_eq!(lane.metrics.rejected, 0, "{} rejected under light load", lane.name);
            assert!(
                lane.metrics.completed as f64 >= 0.99 * lane.metrics.arrived as f64,
                "{}: {}/{} on time",
                lane.name,
                lane.metrics.completed,
                lane.metrics.arrived
            );
        }
    }

    #[test]
    fn every_request_is_accounted_for_exactly_once() {
        let t = trace(150_000.0, 30_000_000, 2);
        let report = try_run(spec(3), &t).expect("valid spec");
        let mut total_arrived = 0;
        for lane in &report.lanes {
            let m = &lane.metrics;
            assert_eq!(
                m.arrived,
                m.rejected + m.shed + m.completed + m.deadline_misses,
                "{} loses requests",
                lane.name
            );
            total_arrived += m.arrived;
        }
        assert_eq!(total_arrived as usize, t.len(), "arrivals must cover the whole trace");
    }

    #[test]
    fn overload_triggers_scale_up_and_admission_control() {
        let report = try_run(spec(6), &trace(400_000.0, 30_000_000, 3)).expect("valid spec");
        let ups: u64 = report.lanes.iter().map(|l| l.scale_ups).sum();
        assert!(ups > 0, "sustained overload must grow the fleet");
        let dropped: u64 = report.lanes.iter().map(|l| l.metrics.rejected + l.metrics.shed).sum();
        assert!(dropped > 0, "overload must trip admission control somewhere");
        for lane in &report.lanes {
            assert!(lane.replicas_peak > 2, "{} never grew", lane.name);
            if lane.scale_ups > 0 {
                assert!(lane.keys_moved > 0, "{} rebalanced for free?", lane.name);
            }
        }
    }

    /// A heavy burst then a long quiet tail: ups then downs.
    fn burst_then_calm(seed: u64) -> Vec<FleetRequest> {
        let mut t = trace(350_000.0, 10_000_000, seed);
        // One straggler far out so epochs keep ticking through the calm.
        let last_id = t.last().map_or(0, |r| r.id + 1);
        t.push(FleetRequest {
            id: last_id,
            lane: 0,
            user: 1,
            arrival_ns: 60_000_000,
            deadline_ns: 63_000_000,
        });
        t
    }

    #[test]
    fn quiet_tail_scales_back_down() {
        let report = try_run(spec(6), &burst_then_calm(4)).expect("valid spec");
        let downs: u64 = report.lanes.iter().map(|l| l.scale_downs).sum();
        assert!(downs > 0, "a quiet tail must shrink the fleet again");
    }

    #[test]
    fn heap_loop_one_pass_read_and_one_ring_match_their_oracles() {
        let mut rng = Rng64::new(27);

        // Rebalance pricing along a random add/remove chain.
        let mut ring = HashRing::with_nodes(32, 3);
        let mut next_id = 3u32;
        for _ in 0..64 {
            let before = ring.clone();
            let (node, owned) = if ring.node_count() > 1 && rng.bernoulli(0.5) {
                let node = ring.nodes()[rng.below(ring.node_count())];
                let owned = ring.keys_owned(node, REBALANCE_PROBES);
                ring.remove_node(node);
                (node, owned)
            } else {
                let node = next_id;
                next_id += 1;
                ring.add_node(node);
                (node, ring.keys_owned(node, REBALANCE_PROBES))
            };
            assert_eq!(owned, moved_keys(&before, &ring, REBALANCE_PROBES), "node {node}");
        }

        // Sharded reads, batch by batch: both schemes, replication 1-3,
        // caches smaller and larger than a 64-row shard, batches of 1-16
        // users, and placement moving under them; 1 to 9 lookups per
        // table (the preset's 4 among them) over stripes of 5, 16 and 17
        // words, so the rank placement, the group select and the
        // closed-form checksum fold all see ragged shapes.
        let shapes = [1, 4, 6, 9].into_iter().flat_map(|lookups| [5, 16, 17].map(|d| (lookups, d)));
        for (lookups_per_table, dim) in shapes {
            for scheme in [ShardScheme::Range, ShardScheme::Hash] {
                for replication in 1..=3 {
                    for cache_rows in [8, 100] {
                        let shards = ShardSpec {
                            tables: 3,
                            rows_per_table: 256,
                            dim,
                            lookups_per_table,
                            shards: 4,
                            replication,
                            scheme,
                            hot_fraction: 0.5,
                            cache_rows,
                        };
                        let mut fast = ShardedStore::new(shards, 5);
                        let mut nodes = vec![0u32, 1, 2];
                        fast.rebalance(&nodes);
                        let mut slow = fast.clone();
                        for batch in 0..48 {
                            if batch % 8 == 7 {
                                if nodes.len() > 1 && rng.bernoulli(0.5) {
                                    nodes.remove(rng.below(nodes.len()));
                                } else {
                                    nodes.push(nodes.iter().max().map_or(0, |n| n + 1));
                                }
                                assert_eq!(fast.rebalance(&nodes), slow.rebalance(&nodes));
                            }
                            let users: Vec<u64> =
                                (0..1 + rng.below(16)).map(|_| rng.below(300) as u64).collect();
                            assert_eq!(
                                fast.pool_batch(&users),
                                slow.pool_batch_two_pass(&users),
                                "{scheme:?}, {lookups_per_table} lookups, dim {dim}, replication \
                                 {replication}, cache {cache_rows}, batch {batch}"
                            );
                        }
                    }
                }
            }
        }

        // Whole fleets that scale both ways, against the sweep loop.
        let cases = [
            (ShardScheme::Range, 1, 16, 1),
            (ShardScheme::Hash, 2, 200, 4),
            (ShardScheme::Range, 3, 200, 16),
            (ShardScheme::Hash, 3, 16, 16),
        ];
        for (seed, (scheme, replication, cache_rows, max_batch)) in (40..).zip(cases) {
            let mut s = spec(6);
            s.lanes[1].policy = BatchPolicy { max_batch, max_wait_ns: 200_000, queue_cap: 32 };
            if let Some(store) = s.store.as_mut() {
                store.scheme = scheme;
                store.replication = replication;
                store.cache_rows = cache_rows;
            }
            let t = burst_then_calm(seed);
            let fast = Fleet::try_new(s.clone()).expect("valid spec").try_run(&t).expect("valid");
            let slow = Fleet::try_new(s).expect("valid spec").try_run_sweep(&t);
            let ups: u64 = fast.lanes.iter().map(|l| l.scale_ups).sum();
            let downs: u64 = fast.lanes.iter().map(|l| l.scale_downs).sum();
            assert!(ups > 0 && downs > 0, "seed {seed}: {ups} up, {downs} down");
            assert_eq!(fast.render(), slow.render(), "seed {seed}");
        }
    }

    #[test]
    fn sharded_lane_pays_for_fanout() {
        let report = try_run(spec(4), &trace(30_000.0, 20_000_000, 5)).expect("valid spec");
        let shard = report.shard.expect("spec has a store");
        assert!(shard.cache_hits + shard.cache_misses > 0, "store never consulted");
        assert!(shard.replicated_bytes >= shard.table_bytes, "owners must cover every shard");
        let recsys = &report.lanes[1];
        let mlp = &report.lanes[0];
        assert!(recsys.checksum != 0, "sharded lane must fold pooled bits");
        assert!(
            recsys.metrics.summary().p50_ns > mlp.metrics.summary().p50_ns,
            "fan-out and misses must cost the sharded lane latency"
        );
    }

    #[test]
    fn reports_are_bit_identical_across_reruns() {
        let t = trace(120_000.0, 25_000_000, 6);
        let a = try_run(spec(5), &t).expect("valid spec").render();
        let b = try_run(spec(5), &t).expect("valid spec").render();
        assert_eq!(a, b, "same (spec, trace) must name the same report bytes");
    }

    #[test]
    fn bad_specs_are_rejected() {
        let no_lanes = Fleet::try_new(FleetSpec { lanes: vec![], store: None, seed: 0 }).err();
        assert!(matches!(no_lanes, Some(ConfigError { reason }) if reason.contains("one lane")));
        let no_store = FleetSpec { lanes: vec![sharded_lane(4)], store: None, seed: 0 };
        assert!(matches!(try_run(no_store, &[]), Err(ServeError::Config(_))));
        let mut bad_initial = spec(4);
        bad_initial.lanes[0].initial_replicas = 9;
        assert!(matches!(try_run(bad_initial, &[]), Err(ServeError::Config(_))));
        // Accepted, case 0 hangs `try_run` (an empty batch closes forever)
        // and cases 2 and 3 panic inside `try_new`.
        let mut cases = vec![spec(4), spec(4), spec(4), spec(4)];
        cases[0].lanes[0].policy.max_batch = 0;
        cases[1].lanes[0].policy.queue_cap = cases[1].lanes[0].policy.max_batch - 1;
        cases[2].lanes[1].autoscale.epoch_ns = 0;
        if let Some(store) = &mut cases[3].store {
            store.shards = 0;
        }
        // Every other autoscale rule, one case each.
        let autoscale: [fn(&mut AutoscalePolicy); 5] = [
            |a| a.min_replicas = 0,
            |a| a.p99_slo_ns = 0,
            |a| a.down_queue_frac = 0.0,
            |a| a.up_queue_frac = 1.5,
            |a| a.calm_epochs_to_downscale = 0,
        ];
        for break_rule in autoscale {
            let mut bad = spec(4);
            break_rule(&mut bad.lanes[0].autoscale);
            cases.push(bad);
        }
        for (i, bad) in cases.into_iter().enumerate() {
            let err = Fleet::try_new(bad).err();
            assert!(err.is_some(), "case {i}: {err:?}");
            // An autoscale rule names its lane, as a batch rule does.
            if i == 2 {
                assert!(err.as_ref().is_some_and(|e| e.reason.contains("lane recsys:")), "{err:?}");
            }
        }
        // Every other store rule, checked without building the store: the
        // last two would size tables of 2^32 rows.
        let store_rules: [fn(&mut ShardSpec); 9] = [
            |s| s.tables = 0,
            |s| s.dim = 0,
            |s| s.lookups_per_table = 0,
            |s| s.shards = s.rows_per_table + 1,
            |s| s.replication = 0,
            |s| s.hot_fraction = 1.5,
            |s| s.cache_rows = 0,
            |s| s.lookups_per_table = u32::MAX as usize + 1,
            |s| s.rows_per_table = u32::MAX as usize,
        ];
        for (i, break_rule) in store_rules.into_iter().enumerate() {
            let mut bad = store();
            break_rule(&mut bad);
            assert!(bad.validate().is_err(), "rule {i}");
        }
    }

    #[test]
    fn bad_traces_are_rejected() {
        let mut t = trace(50_000.0, 5_000_000, 7);
        t.swap(0, 1);
        assert!(matches!(try_run(spec(4), &t), Err(ServeError::UnsortedTrace { position: 1 })));
        let stray = vec![FleetRequest { id: 0, lane: 7, user: 1, arrival_ns: 10, deadline_ns: 20 }];
        assert!(matches!(
            try_run(spec(4), &stray),
            Err(ServeError::UnknownStation { station: 7, .. })
        ));
    }
}
