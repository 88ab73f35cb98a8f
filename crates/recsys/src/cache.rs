//! Embedding-cache simulation (paper Sec. V-B: accelerating embedding
//! operations "could leverage techniques such as caching, prefetching,
//! and near memory processing" \[66\]).
//!
//! An LRU cache of embedding rows sits in front of DRAM. Because item
//! popularity is Zipf-distributed, a cache holding a small fraction of
//! the catalogue captures most lookups; the experiment harness sweeps
//! capacity and skew to map that trade-off.

/// "No node": an uncached key, or the end of the recency list.
const NIL: u32 = u32::MAX;

/// One cached key in the slab.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u32,
    /// Towards the most recently used end.
    prev: u32,
    /// Towards the least recently used end.
    next: u32,
    /// Last-use tick; only read while the recency list is unlinked.
    tick: u64,
}

/// An exact LRU cache over the dense key space `0..keys` (a row of one
/// table, or a row's rank within its shard).
///
/// O(1) per access: cached keys live in a slab found through a plain
/// `Vec<u32>` of node ids, one per key. Until the first eviction a hit
/// only stamps its node's last-use tick; the first eviction links the
/// recency list once, in tick order, and from then on every hit moves
/// its node to the front of the list. The hit/miss sequence is a pure
/// function of the access sequence.
///
/// # Example
///
/// ```
/// use enw_recsys::cache::EmbeddingCache;
///
/// let mut cache = EmbeddingCache::new(2, 16);
/// cache.access(7);
/// cache.access(7);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingCache {
    capacity: usize,
    /// Cached keys; grows by `push` up to `capacity` (reserved up
    /// front), after which the evicted node is reused in place.
    nodes: Vec<Node>,
    /// Node id per key, [`NIL`] when the key is not cached.
    index: Vec<u32>,
    /// Most recently used node; [`NIL`] until the list is linked.
    head: u32,
    /// Least recently used node — the next eviction.
    tail: u32,
    /// Accesses so far while the list is unlinked.
    clock: u64,
    hits: u64,
    misses: u64,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses served from the cache.
    pub hits: u64,
    /// Accesses that went to DRAM.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl EmbeddingCache {
    /// A cache holding up to `capacity` of the keys `0..keys`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `keys` does not fit `u32` keys
    /// and node ids (`keys >= u32::MAX`).
    pub fn new(capacity: usize, keys: usize) -> Self {
        assert!(capacity > 0, "zero-capacity cache");
        assert!(keys < u32::MAX as usize, "cache keys exceed u32 ids");
        EmbeddingCache {
            capacity,
            nodes: Vec::with_capacity(capacity.min(keys)),
            index: vec![NIL; keys],
            head: NIL,
            tail: NIL,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Cache capacity in rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an access to `key`; returns `true` on hit.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the cache's key space.
    #[inline]
    pub fn access(&mut self, key: usize) -> bool {
        let id = self.index[key];
        if id != NIL {
            self.hits += 1;
            if self.head == NIL {
                self.clock += 1;
                self.nodes[id as usize].tick = self.clock;
            } else if id != self.head {
                self.unlink(id);
                self.push_front(id);
            }
            return true;
        }
        self.misses += 1;
        if self.nodes.len() < self.capacity {
            self.clock += 1;
            let node = Node { key: key as u32, prev: NIL, next: NIL, tick: self.clock };
            self.index[key] = self.nodes.len() as u32;
            self.nodes.push(node);
            return false;
        }
        if self.head == NIL {
            self.link_by_tick();
        }
        // Evict the least recently used entry and reuse its node.
        let id = self.tail;
        self.unlink(id);
        let node = &mut self.nodes[id as usize];
        self.index[node.key as usize] = NIL;
        node.key = key as u32;
        self.index[key] = id;
        self.push_front(id);
        false
    }

    /// Links the full slab into the recency list, oldest tick at the
    /// tail: the nodes are sorted by tick in place (no allocation) and
    /// the index is pointed at their new ids.
    #[cold]
    fn link_by_tick(&mut self) {
        self.nodes.sort_unstable_by_key(|n| n.tick);
        let last = self.nodes.len() as u32 - 1;
        for (id, node) in (0u32..).zip(&mut self.nodes) {
            self.index[node.key as usize] = id;
            node.prev = if id == last { NIL } else { id + 1 };
            node.next = if id == 0 { NIL } else { id - 1 };
        }
        self.head = last;
        self.tail = 0;
    }

    /// Takes node `id` out of the recency list.
    #[inline]
    fn unlink(&mut self, id: u32) {
        let Node { prev, next, .. } = self.nodes[id as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Links the detached node `id` in as the most recently used.
    #[inline]
    fn push_front(&mut self, id: u32) {
        let old = self.head;
        let node = &mut self.nodes[id as usize];
        node.prev = NIL;
        node.next = old;
        match old {
            NIL => self.tail = id,
            o => self.nodes[o as usize].prev = id,
        }
        self.head = id;
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: self.hits, misses: self.misses }
    }

    /// Resets counters (keeps contents — for warm-up/measure protocols).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// DRAM vs cache access energy for computing traffic savings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEnergy {
    /// Energy per byte from DRAM (pJ/B).
    pub dram_byte_pj: f64,
    /// Energy per byte from the on-chip cache (pJ/B).
    pub cache_byte_pj: f64,
}

impl Default for MemoryEnergy {
    fn default() -> Self {
        MemoryEnergy { dram_byte_pj: 10.0, cache_byte_pj: 0.5 }
    }
}

impl MemoryEnergy {
    /// Average energy per accessed byte at a given hit rate.
    pub fn effective_byte_pj(&self, hit_rate: f64) -> f64 {
        hit_rate * self.cache_byte_pj + (1.0 - hit_rate) * self.dram_byte_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enw_numerics::rng::{Rng64, ZipfSampler};
    use std::collections::BTreeMap;

    /// The LRU this file held before the slab: key → last-use tick and
    /// tick → key in two ordered maps. Kept as the oracle.
    struct MapLru {
        capacity: usize,
        entries: BTreeMap<usize, u64>,
        order: BTreeMap<u64, usize>,
        clock: u64,
    }

    impl MapLru {
        fn new(capacity: usize) -> Self {
            MapLru { capacity, entries: BTreeMap::new(), order: BTreeMap::new(), clock: 0 }
        }

        fn access(&mut self, key: usize) -> bool {
            self.clock += 1;
            if let Some(tick) = self.entries.get_mut(&key) {
                self.order.remove(tick);
                *tick = self.clock;
                self.order.insert(self.clock, key);
                return true;
            }
            if self.entries.len() >= self.capacity {
                if let Some((_, lru_key)) = self.order.pop_first() {
                    self.entries.remove(&lru_key);
                }
            }
            self.entries.insert(key, self.clock);
            self.order.insert(self.clock, key);
            false
        }
    }

    #[test]
    fn matches_the_ordered_map_lru_access_for_access() {
        // 64 keys (capacities 64, 100 and 256 are equal to and above the
        // key count, so they never evict) and 4096 keys; Zipf so hits and
        // misses mix and the list is linked after many stamped hits.
        for keys in [64usize, 4096] {
            let zipf = ZipfSampler::new(keys, 0.9);
            for capacity in [1usize, 2, 3, 16, 63, 64, 100, 256] {
                let mut rng = Rng64::new((keys + capacity) as u64);
                let mut lru = EmbeddingCache::new(capacity, keys);
                let mut oracle = MapLru::new(capacity);
                for step in 0..50_000 {
                    let key = zipf.sample(&mut rng);
                    assert_eq!(
                        lru.access(key),
                        oracle.access(key),
                        "keys {keys}, capacity {capacity}, step {step}: {key}"
                    );
                }
                assert_eq!(lru.nodes.len(), oracle.entries.len());
                assert_eq!(lru.head == NIL, capacity >= keys, "linked iff it evicted");
                assert_eq!(lru.stats().hits + lru.stats().misses, 50_000);
            }
        }
    }

    #[test]
    fn first_eviction_at_access_capacity_plus_one_links_in_tick_order() {
        // Fill with distinct keys, then (in the second case) hit a
        // shuffled half, so the tick order the list is linked in differs
        // from the insertion order; then a new key evicts. Without the
        // hits the first eviction is access `capacity + 1`.
        for capacity in [1usize, 2, 5, 32] {
            for stamped in [0, capacity.div_ceil(2)] {
                let keys = 4 * capacity;
                let mut rng = Rng64::new(capacity as u64);
                let mut lru = EmbeddingCache::new(capacity, keys);
                let mut oracle = MapLru::new(capacity);
                let mut seq: Vec<usize> = (0..capacity).collect();
                let mut again: Vec<usize> = (0..capacity).collect();
                rng.shuffle(&mut again);
                seq.extend_from_slice(&again[..stamped]);
                seq.push(capacity);
                seq.extend((0..1000).map(|_| rng.below(2 * capacity)));
                for (step, &key) in seq.iter().enumerate() {
                    assert_eq!(lru.head == NIL, step <= capacity + stamped, "step {step}");
                    assert_eq!(
                        lru.access(key),
                        oracle.access(key),
                        "capacity {capacity}, {stamped} stamped, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = EmbeddingCache::new(4, 8);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert_eq!(c.stats().hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = EmbeddingCache::new(2, 8);
        c.access(1);
        c.access(2);
        c.access(1); // refresh 1; 2 becomes LRU
        c.access(3); // evicts 2
        assert!(c.access(1), "1 should still be cached");
        assert!(!c.access(2), "2 should have been evicted");
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let mut c = EmbeddingCache::new(4, 8);
        c.access(5);
        assert!(!c.access(6));
    }

    #[test]
    fn capacity_respected() {
        let mut c = EmbeddingCache::new(3, 10);
        for i in 0..10 {
            c.access(i);
        }
        assert_eq!(c.nodes.len(), 3);
    }

    #[test]
    fn zipf_traffic_gets_high_hit_rate_with_small_cache() {
        let mut rng = Rng64::new(1);
        let zipf = ZipfSampler::new(100_000, 1.0);
        let mut c = EmbeddingCache::new(1000, 100_000); // 1% of catalogue
        for _ in 0..20_000 {
            c.access(zipf.sample(&mut rng));
        }
        let hr = c.stats().hit_rate();
        assert!(hr > 0.4, "hit rate {hr} too low for Zipf(1.0) with 1% cache");
    }

    #[test]
    fn uniform_traffic_gets_low_hit_rate() {
        let mut rng = Rng64::new(2);
        let mut c = EmbeddingCache::new(1000, 100_000);
        for _ in 0..20_000 {
            c.access(rng.below(100_000));
        }
        let hr = c.stats().hit_rate();
        assert!(hr < 0.1, "hit rate {hr} too high for uniform traffic");
    }

    #[test]
    fn energy_interpolates_with_hit_rate() {
        let e = MemoryEnergy::default();
        assert_eq!(e.effective_byte_pj(1.0), 0.5);
        assert_eq!(e.effective_byte_pj(0.0), 10.0);
        assert!(e.effective_byte_pj(0.5) < 10.0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = EmbeddingCache::new(4, 8);
        c.access(1);
        c.reset_stats();
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        assert!(c.access(1), "contents must survive reset");
    }
}
