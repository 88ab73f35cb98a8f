//! Sharded, replicated embedding storage (paper Sec. V-B: DLRM tables
//! exceed one node's memory, so serving splits them into shards spread
//! over the replica set).
//!
//! Each table is cut into `shards` pieces — contiguous row ranges
//! ([`ShardScheme::Range`]) or hashed rows ([`ShardScheme::Hash`]) — and
//! every shard is assigned owners on a consistent-hash ring over the
//! lane's current replicas. A routed lookup groups its indices by
//! shard, sums each shard's rows into a partial and merges the partials
//! *in shard order*. A batch is a handful of users, so the whole read is
//! one thread's straight-line work and the result is a pure function of
//! `(user, store)` — no worker pool is involved.
//!
//! Placement is temperature-driven, E14 style: each shard fronts its own
//! LRU [`EmbeddingCache`] and an epoch access counter; at rebalance the
//! hottest `hot_fraction` of shards get the full replication factor,
//! cold shards get a single owner, and the store reports how many bytes
//! a real cluster would have copied.

use crate::ring::{key_point, HashRing};
use enw_numerics::rng::Rng64;
use enw_recsys::cache::{CacheStats, EmbeddingCache};
use enw_recsys::EmbeddingTable;

/// Virtual points per replica on the shard-placement ring. Placement is
/// control-plane work, so this leans toward balance over speed.
const PLACEMENT_VNODES: u32 = 32;

/// How rows map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardScheme {
    /// Contiguous row ranges — owners hold a dense window.
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
        assert!(
            u32::try_from(self.shards).is_ok() && u32::try_from(self.lookups_per_table).is_ok(),
            "shards and lookups must fit the 32-bit halves of a group key"
        );
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
    /// Shard of each row, the same in every table.
    row_shard: Vec<u32>,
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
    ws: Workspace,
}

/// What [`ShardedStore::pool_batch`] works in: sized at construction
/// (the touch stamps at each rebalance), so a warm read allocates
/// nothing.
#[derive(Debug, Clone)]
struct Workspace {
    /// `stamps[node] == serial` iff `node` already served the current
    /// user; indexed by node id.
    stamps: Vec<u64>,
    serial: u64,
    /// The current user's owner pick for each owner-set length, indexed
    /// by that length (`0` unused).
    pick: Vec<usize>,
    /// One table's lookups as `shard << 32 | k`: sorted, they group by
    /// shard, shards ascending and each group in `k` order.
    keys: Vec<u64>,
    /// One table's lookup rows, by `k`.
    rows: Vec<usize>,
    /// One shard group's pooled partial.
    partial: Vec<f32>,
    /// The current user's pooled output, one `dim` stripe per table.
    pooled: Vec<f32>,
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
        // `validate` bounds `shards` by `u32`.
        let row_shard: Vec<u32> =
            (0..spec.rows_per_table).map(|row| shard_of_row(&spec, row) as u32).collect();
        let mut shard_rows = vec![0usize; slots];
        for t in 0..spec.tables {
            for &s in &row_shard {
                shard_rows[t * spec.shards + s as usize] += 1;
            }
        }
        let caches = (0..slots).map(|_| EmbeddingCache::new(spec.cache_rows)).collect();
        let ws = Workspace {
            stamps: Vec::new(),
            serial: 0,
            pick: vec![0; spec.replication + 1],
            keys: vec![0; spec.lookups_per_table],
            rows: vec![0; spec.lookups_per_table],
            partial: vec![0.0; spec.dim],
            pooled: vec![0.0; spec.tables * spec.dim],
        };
        ShardedStore {
            spec,
            tables,
            row_shard,
            shard_rows,
            accesses: vec![0; slots],
            caches,
            owners: vec![Vec::new(); slots],
            hot: vec![false; slots],
            ws,
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

    /// Accounting and the numeric gather for one routed batch, in one
    /// pass on the calling thread.
    ///
    /// Each lookup is hashed once, and cache accesses, shard
    /// temperatures and owner touches are accounted in `(user, table,
    /// lookup)` order (LRU state is order-sensitive). As soon as a
    /// table's lookups are known it is pooled: a `+0.0` partial per
    /// shard group summed in `k` order, merged into the table's stripe
    /// in ascending shard order. The checksum then folds the user's
    /// stripes. A batch is at most a lane's `max_batch` users of well
    /// under a microsecond each, less than waking a worker costs, so
    /// nothing here fans out.
    ///
    /// # Panics
    ///
    /// Panics if `users` is empty or the store has not been rebalanced
    /// onto a replica set yet.
    pub fn pool_batch(&mut self, users: &[u64]) -> BatchCost {
        assert!(!users.is_empty(), "empty batch");
        let ShardedStore { spec, tables, row_shard, accesses, caches, owners, ws, .. } = self;
        let (dim, lookups) = (spec.dim, spec.lookups_per_table);
        let mut cost = BatchCost::default();
        for &user in users {
            // Reads pin one replica per (user, shard): spread by user
            // hash, stable across identical membership.
            let pick = key_point(user);
            for (len, p) in ws.pick.iter_mut().enumerate().skip(1) {
                *p = (pick % len as u64) as usize;
            }
            ws.serial += 1;
            for (t, (table, stripe)) in tables.iter().zip(ws.pooled.chunks_mut(dim)).enumerate() {
                for k in 0..lookups {
                    let row = index_for(spec, user, t, k);
                    let shard = row_shard[row];
                    let slot = t * spec.shards + shard as usize;
                    accesses[slot] += 1;
                    if caches[slot].access(t, row) {
                        cost.hits += 1;
                    } else {
                        cost.misses += 1;
                    }
                    let set = &owners[slot];
                    assert!(!set.is_empty(), "store serves before its first rebalance");
                    let owner = set[ws.pick[set.len()]] as usize;
                    if ws.stamps[owner] != ws.serial {
                        ws.stamps[owner] = ws.serial;
                        cost.owner_touches += 1;
                    }
                    ws.rows[k] = row;
                    ws.keys[k] = u64::from(shard) << 32 | k as u64;
                }
                ws.keys.sort_unstable();
                stripe.fill(0.0);
                for group in ws.keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                    ws.partial.fill(0.0);
                    for &key in group {
                        let row = table.row(ws.rows[key as u32 as usize]);
                        for (p, v) in ws.partial.iter_mut().zip(row) {
                            *p += v;
                        }
                    }
                    for (o, p) in stripe.iter_mut().zip(&ws.partial) {
                        *o += p;
                    }
                }
            }
            for &v in &ws.pooled {
                cost.checksum = cost.checksum.rotate_left(1) ^ u64::from(v.to_bits());
            }
        }
        let pooled = (users.len() * ws.pooled.len()) as u64;
        enw_trace::record_span_io(
            "fleet/pool_batch",
            pooled,
            (cost.hits + cost.misses) * (dim * 4) as u64,
            pooled * 4,
        );
        enw_trace::counter_add("fleet.owner_touches", cost.owner_touches);
        enw_trace::counter_add("fleet.cache_misses", cost.misses);
        cost
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
            if self.ws.stamps.len() <= n as usize {
                self.ws.stamps.resize(n as usize + 1, 0);
            }
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

/// The `k`-th lookup row of `user` in `table` — a fixed hash, so a
/// returning user re-touches the same rows (that is what makes hot-key
/// skew heat shards and caches).
#[inline]
fn index_for(spec: &ShardSpec, user: u64, table: usize, k: usize) -> usize {
    let h = key_point(user ^ ((table as u64) << 40) ^ ((k as u64) << 52) ^ 0x00c0_ffee);
    (h % spec.rows_per_table as u64) as usize
}

/// Placement-ring key of a `(table, shard)` slot, domain-separated from
/// request routing.
#[inline]
fn shard_key(slot: usize) -> u64 {
    (slot as u64) ^ 0xdead_10c5_0000_0000
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The two-pass read the one-pass [`ShardedStore::pool_batch`]
    /// replaced, kept as its oracle: the whole batch's accounting, then
    /// each user pooled through per-shard-group gathers.
    impl ShardedStore {
        pub(crate) fn pool_batch_two_pass(&mut self, users: &[u64]) -> BatchCost {
            assert!(!users.is_empty(), "empty batch");
            let spec = &self.spec;
            let mut cost = BatchCost::default();
            let mut touched = vec![0usize; spec.total_shards()];
            for &user in users {
                let pick = key_point(user);
                let mut ntouched = 0usize;
                for t in 0..spec.tables {
                    for k in 0..spec.lookups_per_table {
                        let row = index_for(spec, user, t, k);
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
                        if !touched[..ntouched].contains(&(owner as usize)) {
                            touched[ntouched] = owner as usize;
                            ntouched += 1;
                        }
                    }
                }
                cost.owner_touches += ntouched as u64;
            }
            let stripe = spec.tables * spec.dim;
            let mut pooled = vec![0.0f32; users.len() * stripe];
            for (&user, window) in users.iter().zip(pooled.chunks_mut(stripe)) {
                self.pool_user_into(user, window);
            }
            for &v in &pooled {
                cost.checksum = cost.checksum.rotate_left(1) ^ u64::from(v.to_bits());
            }
            cost
        }

        /// Pools all of `user`'s lookups into `out` (one `dim` stripe
        /// per table): lookups grouped by shard, each group gathered by
        /// the table's own `gather_pool_into`, partials merged in
        /// ascending shard order.
        pub(crate) fn pool_user_into(&self, user: u64, out: &mut [f32]) {
            let spec = &self.spec;
            assert_eq!(out.len(), spec.tables * spec.dim, "pooled stripe width mismatch");
            let lookups = spec.lookups_per_table;
            let mut rows = vec![0usize; lookups];
            let mut keys = vec![0usize; lookups];
            let mut partial = vec![0.0f32; spec.dim];
            for (t, stripe) in out.chunks_mut(spec.dim).enumerate() {
                for (k, (row, key)) in rows.iter_mut().zip(keys.iter_mut()).enumerate() {
                    *row = index_for(spec, user, t, k);
                    *key = shard_of_row(spec, *row) * lookups + k;
                }
                keys.sort_unstable();
                stripe.fill(0.0);
                for group in keys.chunk_by_mut(|a, b| a / lookups == b / lookups) {
                    for key in group.iter_mut() {
                        *key = rows[*key % lookups];
                    }
                    self.tables[t].gather_pool_into(group, &mut partial);
                    for (o, p) in stripe.iter_mut().zip(&partial) {
                        *o += p;
                    }
                }
            }
        }
    }

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
                let indices: Vec<usize> =
                    (0..6).map(|k| index_for(&store.spec, user, t, k)).collect();
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
