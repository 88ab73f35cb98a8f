//! `enw-fleet`: sharded multi-node serving on the deterministic clock.
//!
//! The serving crate (`enw-serve`) models one station; this crate models
//! a *cluster* of them, because the paper's capacity questions — how
//! many nodes a recommendation tier needs, what shard placement does to
//! tail latency, when autoscaling pays for itself — only exist at fleet
//! scale. Everything runs on the same virtual clock discipline as the
//! rest of the workspace: no wall time, no OS randomness, bit-identical
//! reports across reruns and `ENW_THREADS` settings.
//!
//! The pieces, bottom-up:
//!
//! - [`ring`] — a consistent-hash ring with virtual nodes, bounded-load
//!   routing and a probe-based rebalance price. Key movement on replica
//!   churn is ~K/N, and ties break deterministically.
//! - [`shard`] — recsys embedding tables split into range or hash
//!   shards with replication, per-shard caches, and hot/cold placement
//!   driven by observed access counts.
//! - [`autoscale`] — a reactive per-lane controller: queue-depth and
//!   p99 signals in, scale decisions out, with cooldowns and calm
//!   streaks so a diurnal trough cannot flap the fleet.
//! - [`traffic`] — arrival traces carrying routable user keys: any
//!   `enw_serve::ShapeKind` (Poisson, diurnal, bursty, flash crowd)
//!   through serve's one arrival generator, with user-popularity mixes
//!   (uniform, Zipf, hot set).
//! - [`sim`] — the event loop tying it together: admission via the
//!   ring, per-replica batching, control epochs, and a byte-exact
//!   [`FleetReport`].
//!
//! Event order at any instant is fixed — completions, then control,
//! then arrivals, then batch starts — which is what makes the reports
//! reproducible. Nothing in the crate fans out: a routed batch is a
//! handful of queries, so even the numeric gather inside
//! [`ShardedStore::pool_batch`](shard::ShardedStore::pool_batch) runs
//! in line, and thread count cannot reach the results.

pub mod autoscale;
pub mod presets;
pub mod ring;
pub mod shard;
pub mod sim;
pub mod traffic;

pub use autoscale::{AutoscalePolicy, Autoscaler, EpochSignals, ScaleDecision};
pub use ring::HashRing;
pub use shard::{BatchCost, RebalanceCost, ShardScheme, ShardSpec, ShardedStore};
pub use sim::{try_run, Fleet, FleetReport, FleetSpec, LaneReport, LaneSpec, ShardReport};
pub use traffic::{generate_fleet_trace, FleetRequest, UserMix, UserSampler};
