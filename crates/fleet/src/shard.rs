//! Sharded, replicated embedding storage (paper Sec. V-B: DLRM tables
//! exceed one node's memory, so serving splits them into shards spread
//! over the replica set).
//!
//! Each table is cut into `shards` pieces — contiguous row ranges
//! ([`ShardScheme::Range`]) or hashed rows ([`ShardScheme::Hash`]) — and
//! every shard is assigned owners on a consistent-hash ring over the
//! lane's current replicas. A routed lookup groups its indices by
//! shard, gathers each shard's rows (range shards through the borrowed
//! `recsys::TableView` window, hash shards through the parent table) and
//! merges the pooled partials *in shard order*. A batch is a handful of
//! users, so the whole read is one thread's straight-line work and the
//! result is a pure function of `(user, store)` — no worker pool is
//! involved.
//!
//! Placement is temperature-driven, E14 style: each shard fronts its own
//! LRU [`EmbeddingCache`] and an epoch access counter; at rebalance the
//! hottest `hot_fraction` of shards get the full replication factor,
//! cold shards get a single owner, and the store reports how many bytes
//! a real cluster would have copied.

use crate::ring::{key_point, HashRing};
use enw_numerics::rng::Rng64;
use enw_parallel::scratch;
use enw_recsys::cache::{CacheStats, EmbeddingCache};
use enw_recsys::EmbeddingTable;

/// Virtual points per replica on the shard-placement ring. Placement is
/// control-plane work, so this leans toward balance over speed.
const PLACEMENT_VNODES: u32 = 32;

/// How rows map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardScheme {
    /// Contiguous row ranges — owners hold a dense window (served
    /// through `EmbeddingTable::range_view`).
    Range,
    /// Rows scattered by hash — balances skewed catalogues at the cost
    /// of dense windows.
    Hash,
}

impl ShardScheme {
    /// Short stable name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ShardScheme::Range => "range",
            ShardScheme::Hash => "hash",
        }
    }
}

/// Geometry and placement policy of a sharded store.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Number of embedding tables.
    pub tables: usize,
    /// Rows per table (catalogue size).
    pub rows_per_table: usize,
    /// Latent dimension.
    pub dim: usize,
    /// Multi-hot lookups per table per query.
    pub lookups_per_table: usize,
    /// Shards per table.
    pub shards: usize,
    /// Owners per *hot* shard (cold shards keep one).
    pub replication: usize,
    /// Row-to-shard mapping.
    pub scheme: ShardScheme,
    /// Fraction of shards (by access rank) that get full replication.
    pub hot_fraction: f64,
    /// Per-shard LRU cache capacity, in rows.
    pub cache_rows: usize,
}

impl ShardSpec {
    /// Total shards across all tables.
    pub fn total_shards(&self) -> usize {
        self.tables * self.shards
    }

    fn validate(&self) {
        assert!(self.tables > 0, "a store needs at least one table");
        assert!(self.rows_per_table > 0 && self.dim > 0, "tables must be non-empty");
        assert!(self.lookups_per_table > 0, "queries must look something up");
        assert!(
            self.shards > 0 && self.shards <= self.rows_per_table,
            "shards must be in 1..=rows"
        );
        assert!(self.replication > 0, "replication factor must be at least 1");
        assert!((0.0..=1.0).contains(&self.hot_fraction), "hot_fraction must sit in [0, 1]");
        assert!(self.cache_rows > 0, "per-shard caches need capacity");
    }
}

/// What one routed batch cost the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchCost {
    /// Distinct `(shard owner)` nodes touched, summed over queries — the
    /// fan-out a real cluster pays in RPCs.
    pub owner_touches: u64,
    /// Row accesses served by shard caches.
    pub hits: u64,
    /// Row accesses that went to DRAM.
    pub misses: u64,
    /// Order-sensitive fold of every pooled output bit — the value the
    /// determinism tests fingerprint.
    pub checksum: u64,
}

/// What one placement pass moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceCost {
    /// Shards whose owner set changed.
    pub reassigned_shards: u64,
    /// Bytes a real cluster would copy to honor the new placement.
    pub moved_bytes: u64,
}

/// A replicated, sharded, cache-fronted embedding store.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    spec: ShardSpec,
    tables: Vec<EmbeddingTable>,
    /// Rows in each `(table, shard)` slot, `table * shards + shard`.
    shard_rows: Vec<usize>,
    /// Epoch access counters per slot (halved at each rebalance).
    accesses: Vec<u64>,
    /// Per-slot LRU caches (E14's memory-system model).
    caches: Vec<EmbeddingCache>,
    /// Current owner nodes per slot, primary first. Empty until the
    /// first [`ShardedStore::rebalance`].
    owners: Vec<Vec<u32>>,
    /// Hot flags from the last rebalance.
    hot: Vec<bool>,
}

impl ShardedStore {
    /// Builds the store's tables from `seed` and prepares empty
    /// placement state; call [`rebalance`](ShardedStore::rebalance) with
    /// the initial replica set before serving.
    ///
    /// # Panics
    ///
    /// Panics if the spec is internally inconsistent (see [`ShardSpec`]).
    pub fn new(spec: ShardSpec, seed: u64) -> Self {
        spec.validate();
        let mut rng = Rng64::new(seed);
        let tables: Vec<EmbeddingTable> = (0..spec.tables)
            .map(|_| EmbeddingTable::random(spec.rows_per_table, spec.dim, &mut rng))
            .collect();
        let slots = spec.total_shards();
        let mut shard_rows = vec![0usize; slots];
        for t in 0..spec.tables {
            for row in 0..spec.rows_per_table {
                shard_rows[t * spec.shards + shard_of_row(&spec, row)] += 1;
            }
        }
        let caches = (0..slots).map(|_| EmbeddingCache::new(spec.cache_rows)).collect();
        ShardedStore {
            spec,
            tables,
            shard_rows,
            accesses: vec![0; slots],
            caches,
            owners: vec![Vec::new(); slots],
            hot: vec![false; slots],
        }
    }

    /// The geometry this store was built with.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Total FP32 bytes across all tables (unreplicated).
    pub fn bytes(&self) -> u64 {
        self.tables.iter().map(EmbeddingTable::bytes).sum()
    }

    /// Bytes currently pinned across all owners (replicas included).
    pub fn replicated_bytes(&self) -> u64 {
        (0..self.spec.total_shards())
            .map(|slot| self.owners[slot].len() as u64 * self.slot_bytes(slot))
            .sum()
    }

    /// Shards flagged hot by the last rebalance.
    pub fn hot_shards(&self) -> usize {
        self.hot.iter().filter(|&&h| h).count()
    }

    /// Aggregate cache counters across every shard.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.caches {
            let s = c.stats();
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    fn slot_bytes(&self, slot: usize) -> u64 {
        (self.shard_rows[slot] * self.spec.dim * 4) as u64
    }

    /// The `k`-th lookup row of `user` in `table` — a fixed hash, so a
    /// returning user re-touches the same rows (that is what makes
    /// hot-key skew heat shards and caches).
    #[inline]
    fn index_for(&self, user: u64, table: usize, k: usize) -> usize {
        let h = key_point(user ^ ((table as u64) << 40) ^ ((k as u64) << 52) ^ 0x00c0_ffee);
        (h % self.spec.rows_per_table as u64) as usize
    }

    /// Accounting, then the numeric gather, for one routed batch — both
    /// in line on the calling thread.
    ///
    /// Cache accesses, shard temperatures and owner-touch counts are
    /// walked in `(query, table, lookup)` order (LRU state is
    /// order-sensitive); each query is then pooled in turn into its own
    /// stripe. A batch is at most a lane's `max_batch` queries of a few
    /// microseconds each, less than waking a worker costs, so nothing
    /// here fans out.
    ///
    /// # Panics
    ///
    /// Panics if `users` is empty or the store has not been rebalanced
    /// onto a replica set yet.
    pub fn pool_batch(&mut self, users: &[u64]) -> BatchCost {
        assert!(!users.is_empty(), "empty batch");
        let spec = &self.spec;
        let mut cost = BatchCost::default();
        let mut touched = scratch::take_usize(spec.total_shards());
        for &user in users {
            // Reads pin one replica per (user, shard): spread by user
            // hash, stable across identical membership.
            let pick = key_point(user);
            let mut ntouched = 0usize;
            for t in 0..spec.tables {
                for k in 0..spec.lookups_per_table {
                    let row = self.index_for(user, t, k);
                    let s = shard_of_row(spec, row);
                    let slot = t * spec.shards + s;
                    self.accesses[slot] += 1;
                    if self.caches[slot].access(t, row) {
                        cost.hits += 1;
                    } else {
                        cost.misses += 1;
                    }
                    let owners = &self.owners[slot];
                    assert!(!owners.is_empty(), "store serves before its first rebalance");
                    let owner = owners[(pick % owners.len() as u64) as usize];
                    let touched = touched.as_mut_slice();
                    if !touched[..ntouched].contains(&(owner as usize)) {
                        touched[ntouched] = owner as usize;
                        ntouched += 1;
                    }
                }
            }
            cost.owner_touches += ntouched as u64;
        }

        let stripe = spec.tables * spec.dim;
        let mut pooled = scratch::take_f32(users.len() * stripe);
        for (&user, window) in users.iter().zip(pooled.chunks_mut(stripe)) {
            self.pool_user_into(user, window);
        }
        for &v in pooled.as_slice() {
            cost.checksum = cost.checksum.rotate_left(1) ^ u64::from(v.to_bits());
        }
        enw_trace::record_span_io(
            "fleet/pool_batch",
            (users.len() * stripe) as u64,
            (cost.hits + cost.misses) * (spec.dim * 4) as u64,
            (pooled.as_slice().len() * 4) as u64,
        );
        enw_trace::counter_add("fleet.owner_touches", cost.owner_touches);
        enw_trace::counter_add("fleet.cache_misses", cost.misses);
        cost
    }

    /// Pools all of `user`'s lookups into `out` (one `dim` stripe per
    /// table, fully overwritten): each lookup's row and shard are
    /// computed once, the lookups are grouped by shard, each shard's
    /// rows are gathered through its storage unit, and partials merge in
    /// ascending shard order.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != tables * dim`.
    // enw:hot
    pub fn pool_user_into(&self, user: u64, out: &mut [f32]) {
        let spec = &self.spec;
        assert_eq!(out.len(), spec.tables * spec.dim, "pooled stripe width mismatch");
        let lookups = spec.lookups_per_table;
        let mut rows = scratch::take_usize(lookups);
        let mut keys = scratch::take_usize(lookups);
        let mut partial = scratch::take_f32(spec.dim);
        let (rows, keys, partial) =
            (rows.as_mut_slice(), keys.as_mut_slice(), partial.as_mut_slice());
        for (t, stripe) in out.chunks_mut(spec.dim).enumerate() {
            // Sorting `shard * lookups + k` groups the lookups by shard,
            // shards ascending and each shard's lookups in `k` order.
            for (k, (row, key)) in rows.iter_mut().zip(keys.iter_mut()).enumerate() {
                *row = self.index_for(user, t, k);
                *key = shard_of_row(spec, *row) * lookups + k;
            }
            keys.sort_unstable();
            stripe.fill(0.0);
            for group in keys.chunk_by_mut(|a, b| a / lookups == b / lookups) {
                let Some(&first) = group.first() else { continue };
                let s = first / lookups;
                match spec.scheme {
                    ShardScheme::Range => {
                        // Range shards address their window locally —
                        // the unit an owner node actually holds.
                        let start = range_start(spec, s);
                        let len = range_start(spec, s + 1) - start;
                        for key in group.iter_mut() {
                            *key = rows[*key % lookups] - start;
                        }
                        self.tables[t].range_view(start, len).gather_pool_into(group, partial);
                    }
                    ShardScheme::Hash => {
                        for key in group.iter_mut() {
                            *key = rows[*key % lookups];
                        }
                        self.tables[t].gather_pool_into(group, partial);
                    }
                }
                for (o, p) in stripe.iter_mut().zip(partial.iter()) {
                    *o += p;
                }
            }
        }
    }

    /// Recomputes hot/cold placement over `nodes` and returns what the
    /// move cost. Shards are ranked by epoch accesses (ties on slot id);
    /// the top `hot_fraction` get `replication` owners from the
    /// placement ring, the rest one. Epoch counters are halved so
    /// temperature tracks recent traffic.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn rebalance(&mut self, nodes: &[u32]) -> RebalanceCost {
        assert!(!nodes.is_empty(), "placement needs at least one replica");
        let mut ring = HashRing::new(PLACEMENT_VNODES);
        for &n in nodes {
            ring.add_node(n);
        }
        let slots = self.spec.total_shards();
        let mut rank: Vec<usize> = (0..slots).collect();
        rank.sort_by_key(|&slot| (u64::MAX - self.accesses[slot], slot));
        let hot_count = ((self.spec.hot_fraction * slots as f64).ceil() as usize).min(slots);
        let mut cost = RebalanceCost::default();
        let mut buf = vec![0u32; self.spec.replication.min(nodes.len()).max(1)];
        for (pos, &slot) in rank.iter().enumerate() {
            let is_hot = pos < hot_count;
            let want = if is_hot { buf.len() } else { 1 };
            let got = ring.owners_into(shard_key(slot), &mut buf[..want]);
            let new_owners = &buf[..got];
            if self.owners[slot] != new_owners {
                cost.reassigned_shards += 1;
                // Bytes copied = bytes landing on owners that did not
                // already hold this shard.
                let fresh =
                    new_owners.iter().filter(|n| !self.owners[slot].contains(n)).count() as u64;
                cost.moved_bytes += fresh * self.slot_bytes(slot);
                self.owners[slot].clear();
                self.owners[slot].extend_from_slice(new_owners);
            }
            self.hot[slot] = is_hot;
        }
        for a in &mut self.accesses {
            *a /= 2;
        }
        enw_trace::counter_add("fleet.rebalanced_bytes", cost.moved_bytes);
        cost
    }
}

/// Which shard of its table `row` belongs to.
#[inline]
fn shard_of_row(spec: &ShardSpec, row: usize) -> usize {
    match spec.scheme {
        ShardScheme::Range => row * spec.shards / spec.rows_per_table,
        ShardScheme::Hash => (key_point(row as u64 ^ 0x5ca1_ab1e) % spec.shards as u64) as usize,
    }
}

/// First row of range shard `s` (valid for `s == shards` as the end
/// sentinel).
#[inline]
fn range_start(spec: &ShardSpec, s: usize) -> usize {
    s * spec.rows_per_table / spec.shards
}

/// Placement-ring key of a `(table, shard)` slot, domain-separated from
/// request routing.
#[inline]
fn shard_key(slot: usize) -> u64 {
    (slot as u64) ^ 0xdead_10c5_0000_0000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(scheme: ShardScheme) -> ShardSpec {
        ShardSpec {
            tables: 2,
            rows_per_table: 64,
            dim: 8,
            lookups_per_table: 6,
            shards: 4,
            replication: 2,
            scheme,
            hot_fraction: 0.25,
            cache_rows: 16,
        }
    }

    #[test]
    fn range_shards_partition_the_rows() {
        let s = spec(ShardScheme::Range);
        let mut counts = vec![0usize; s.shards];
        for row in 0..s.rows_per_table {
            counts[shard_of_row(&s, row)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), s.rows_per_table);
        assert!(counts.iter().all(|&c| c == 16), "64 rows over 4 shards: {counts:?}");
    }

    #[test]
    fn sharded_pool_matches_the_unsharded_gather() {
        // Fan-out + shard-order merge must reproduce the plain pooled
        // gather bit for bit: both sum the same rows, and f32 addition
        // here is order-insensitive only because we verify it is.
        for scheme in [ShardScheme::Range, ShardScheme::Hash] {
            let mut store = ShardedStore::new(spec(scheme), 7);
            store.rebalance(&[0, 1, 2]);
            let user = 0xfeed_u64;
            let mut sharded = vec![0.0f32; 2 * 8];
            store.pool_user_into(user, &mut sharded);
            for t in 0..2 {
                let indices: Vec<usize> = (0..6).map(|k| store.index_for(user, t, k)).collect();
                let mut direct = store.tables[t].lookup_pool(&indices);
                // Shard-order merge permutes the additions; compare with
                // a tolerance scaled to the pooled magnitude.
                for (a, b) in sharded[t * 8..(t + 1) * 8].iter().zip(direct.drain(..)) {
                    assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn pool_batch_is_reproducible_and_counts_fanout() {
        let mut a = ShardedStore::new(spec(ShardScheme::Range), 9);
        a.rebalance(&[0, 1, 2, 3]);
        let users = [1u64, 2, 3, 1, 2, 1];
        let ca = a.pool_batch(&users);
        let mut b = ShardedStore::new(spec(ShardScheme::Range), 9);
        b.rebalance(&[0, 1, 2, 3]);
        let cb = b.pool_batch(&users);
        assert_eq!(ca, cb, "same store + batch must name the same cost");
        assert!(ca.owner_touches >= users.len() as u64, "every query touches >= 1 owner");
        assert_eq!(ca.hits + ca.misses, (users.len() * 2 * 6) as u64);
    }

    #[test]
    fn pool_batch_cost_is_pinned() {
        // Recorded at the commit before the gather moved in line and the
        // cache became a slab: same hit/miss sequence, same owner picks
        // and — through the checksum — every f32 addition in the same
        // order, exactly, not to a tolerance.
        let cost = |owner_touches, hits, misses, checksum| BatchCost {
            owner_touches,
            hits,
            misses,
            checksum,
        };
        let pins = [
            (
                ShardScheme::Range,
                [
                    cost(48, 106, 86, 0xb57c_4323_b52b_855a),
                    cost(48, 171, 21, 0x22a4_5f5a_24d8_6d1d),
                    cost(48, 188, 4, 0xe938_8384_f2de_294b),
                ],
            ),
            (
                ShardScheme::Hash,
                [
                    cost(47, 106, 86, 0xae3c_ac24_027e_0be7),
                    cost(47, 171, 21, 0x5c56_6c49_5ebe_d373),
                    cost(48, 186, 6, 0x16fe_de0e_d47c_9c08),
                ],
            ),
        ];
        for (scheme, expected) in pins {
            let mut store = ShardedStore::new(spec(scheme), 9);
            store.rebalance(&[0, 1, 2, 3]);
            for (b, want) in (0u64..).zip(expected) {
                let users: Vec<u64> = (0..16).map(|i| (b * 11 + i * i) % 23).collect();
                assert_eq!(store.pool_batch(&users), want, "{scheme:?} batch {b}");
            }
        }
    }

    #[test]
    fn repeated_users_warm_the_caches() {
        let mut store = ShardedStore::new(spec(ShardScheme::Hash), 5);
        store.rebalance(&[0, 1]);
        let cold = store.pool_batch(&[42; 8]);
        assert!(cold.hits > 0, "one user repeated in a batch must hit its own rows");
        let warm = store.pool_batch(&[42; 8]);
        assert!(warm.hits > cold.hits, "second batch should be fully warm");
        assert_eq!(warm.misses, 0, "everything cached after the first batch");
    }

    #[test]
    fn rebalance_replicates_hot_shards_and_prices_moves() {
        let mut store = ShardedStore::new(spec(ShardScheme::Range), 3);
        let first = store.rebalance(&[0, 1, 2]);
        assert!(first.moved_bytes > 0, "initial placement copies every shard once");
        assert_eq!(first.reassigned_shards, store.spec().total_shards() as u64);
        // Heat one user's shards, then rebalance: hot slots replicate.
        for _ in 0..16 {
            store.pool_batch(&[7; 4]);
        }
        store.rebalance(&[0, 1, 2]);
        assert_eq!(store.hot_shards(), 2, "ceil(0.25 * 8) hot slots");
        let replicated = store.replicated_bytes();
        assert!(replicated > store.bytes() / 2, "hot shards must hold extra copies");
        // Same membership + same temperatures: a rebalance is free.
        for _ in 0..16 {
            store.pool_batch(&[7; 4]);
        }
        let again = store.rebalance(&[0, 1, 2]);
        assert_eq!(again.moved_bytes, 0, "stable placement must not thrash");
    }

    #[test]
    fn losing_a_node_moves_only_its_shards() {
        let mut store = ShardedStore::new(spec(ShardScheme::Hash), 11);
        store.rebalance(&[0, 1, 2, 3]);
        let before = store.owners.clone();
        let cost = store.rebalance(&[0, 1, 3]);
        for (slot, owners) in store.owners.iter().enumerate() {
            assert!(!owners.contains(&2), "slot {slot} still owned by the dead node");
            // Consistent placement: slots the dead node never owned keep
            // their owner sets.
            assert!(
                before[slot].contains(&2) || before[slot] == *owners,
                "slot {slot} moved although node 2 never owned it"
            );
        }
        assert!(cost.moved_bytes > 0, "the dead node's shards must move somewhere");
    }

    #[test]
    #[should_panic(expected = "before its first rebalance")]
    fn serving_unplaced_shards_is_rejected() {
        let mut store = ShardedStore::new(spec(ShardScheme::Range), 1);
        store.pool_batch(&[1]);
    }
}
