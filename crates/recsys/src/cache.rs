//! Embedding-cache simulation (paper Sec. V-B: accelerating embedding
//! operations "could leverage techniques such as caching, prefetching,
//! and near memory processing" \[66\]).
//!
//! An LRU cache of embedding rows sits in front of DRAM. Because item
//! popularity is Zipf-distributed, a cache holding a small fraction of
//! the catalogue captures most lookups; the experiment harness sweeps
//! capacity and skew to map that trade-off.

/// "No node": an empty index slot, or the end of the recency list.
const NIL: u32 = u32::MAX;

/// One cached row in the slab, linked into the recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: (usize, usize),
    /// Towards the most recently used end.
    prev: u32,
    /// Towards the least recently used end.
    next: u32,
}

/// An LRU cache over `(table, row)` embedding identifiers.
///
/// Exact LRU in O(1) per access: cached keys live in a slab threaded as
/// a doubly linked recency list, found through an open-addressed index
/// (linear probing, at most half full, backward-shift deletion). The
/// slot hash is a fixed mix, so the hit/miss sequence — and every probe
/// — is a pure function of the access sequence.
///
/// # Example
///
/// ```
/// use enw_recsys::cache::EmbeddingCache;
///
/// let mut cache = EmbeddingCache::new(2);
/// cache.access(0, 7);
/// cache.access(0, 7);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingCache {
    capacity: usize,
    /// Cached keys; grows by `push` up to `capacity`, after which the
    /// evicted node is reused in place.
    nodes: Vec<Node>,
    /// Node id per slot, [`NIL`] when empty. A power of two at least
    /// twice `capacity`, so probe runs stay short and always end.
    index: Vec<u32>,
    /// Most recently used node.
    head: u32,
    /// Least recently used node — the next eviction.
    tail: u32,
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
    /// A cache holding up to `capacity` embedding rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not leave room for `u32`
    /// node ids (`capacity >= u32::MAX / 2`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity cache");
        assert!(capacity < (u32::MAX / 2) as usize, "cache capacity exceeds u32 node ids");
        EmbeddingCache {
            capacity,
            nodes: Vec::new(),
            index: vec![NIL; (2 * capacity).next_power_of_two()],
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Cache capacity in rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an access to `(table, row)`; returns `true` on hit.
    pub fn access(&mut self, table: usize, row: usize) -> bool {
        let key = (table, row);
        let mut slot = self.probe(key);
        let found = self.index[slot];
        if found != NIL {
            self.hits += 1;
            if found != self.head {
                self.unlink(found);
                self.push_front(found);
            }
            return true;
        }
        self.misses += 1;
        let id = if self.nodes.len() < self.capacity {
            self.nodes.push(Node { key, prev: NIL, next: NIL });
            (self.nodes.len() - 1) as u32
        } else {
            // Evict the least recently used entry and reuse its node.
            // The shift may move entries of `key`'s own run, so the
            // free slot is probed for again.
            let id = self.tail;
            self.unlink(id);
            self.remove_from_index(id);
            self.nodes[id as usize].key = key;
            slot = self.probe(key);
            id
        };
        self.index[slot] = id;
        self.push_front(id);
        false
    }

    /// Walks `key`'s probe run to the slot that holds it or, if it is
    /// not cached, to the empty slot that ends the run. The index is
    /// never more than half full, so every run ends.
    #[inline]
    fn probe(&self, key: (usize, usize)) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = home_slot(key, mask);
        loop {
            let id = self.index[slot];
            if id == NIL || self.nodes[id as usize].key == key {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
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

    /// Empties node `id`'s index slot and closes the gap by backward
    /// shift: each later entry of the probe run moves into the hole
    /// unless that would put it before its home slot.
    fn remove_from_index(&mut self, id: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.probe(self.nodes[id as usize].key);
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let moved = self.index[next];
            if moved == NIL {
                break;
            }
            let home = home_slot(self.nodes[moved as usize].key, mask);
            // `moved` must stay put iff its home lies cyclically in
            // `(hole, next]`: measured back from `next`, home is then
            // strictly nearer than the hole. Runs may wrap the end of
            // the index, hence the masked differences.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.index[hole] = moved;
                hole = next;
            }
        }
        self.index[hole] = NIL;
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

/// Home slot of `key` in an index of `mask + 1` slots: a fixed
/// splitmix64-style finalizer, never seeded (ENW-D003), so sequential
/// rows of one table spread instead of clustering a linear probe.
#[inline]
fn home_slot((table, row): (usize, usize), mask: usize) -> usize {
    let mut z = (row as u64).wrapping_add((table as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as usize & mask
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
        entries: BTreeMap<(usize, usize), u64>,
        order: BTreeMap<u64, (usize, usize)>,
        clock: u64,
    }

    impl MapLru {
        fn new(capacity: usize) -> Self {
            MapLru { capacity, entries: BTreeMap::new(), order: BTreeMap::new(), clock: 0 }
        }

        fn access(&mut self, table: usize, row: usize) -> bool {
            self.clock += 1;
            let key = (table, row);
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
        // 64 keys (so capacities 64, 100 and 256 never evict) and 4096
        // keys, each spread over 3 tables; Zipf so hits and misses mix.
        for universe in [64usize, 4096] {
            let zipf = ZipfSampler::new(universe, 0.9);
            for capacity in [1usize, 2, 3, 16, 64, 100, 256] {
                let mut rng = Rng64::new((universe + capacity) as u64);
                let mut lru = EmbeddingCache::new(capacity);
                let mut oracle = MapLru::new(capacity);
                for step in 0..50_000 {
                    let k = zipf.sample(&mut rng);
                    let (table, row) = (k % 3, k / 3);
                    assert_eq!(
                        lru.access(table, row),
                        oracle.access(table, row),
                        "universe {universe}, capacity {capacity}, step {step}: ({table}, {row})"
                    );
                }
                assert_eq!(lru.nodes.len(), oracle.entries.len());
                assert_eq!(lru.stats().hits + lru.stats().misses, 50_000);
            }
        }
    }

    /// Rows of table 0 whose home is `home` in a capacity-4 (8-slot) index.
    fn rows_homed_at(home: usize) -> impl Iterator<Item = usize> {
        (0usize..).filter(move |&row| home_slot((0, row), 7) == home)
    }

    fn slot_of(c: &EmbeddingCache, row: usize) -> Option<usize> {
        c.index.iter().position(|&id| id != NIL && c.nodes[id as usize].key == (0, row))
    }

    #[test]
    fn eviction_shift_crosses_the_end_of_the_index() {
        let filler = rows_homed_at(4).next().unwrap();
        let newcomer = rows_homed_at(3).next().unwrap();

        // A run homed at the last slot wraps into 0 and 1; evicting its
        // head pulls both followers back across the end.
        let run: Vec<usize> = rows_homed_at(7).take(3).collect();
        let mut c = EmbeddingCache::new(4);
        for &row in run.iter().chain([&filler]) {
            c.access(0, row);
        }
        assert_eq!(
            run.iter().map(|&r| slot_of(&c, r)).collect::<Vec<_>>(),
            [Some(7), Some(0), Some(1)]
        );
        c.access(0, newcomer); // evicts run[0], the LRU, from slot 7
        assert_eq!(
            run.iter().map(|&r| slot_of(&c, r)).collect::<Vec<_>>(),
            [None, Some(7), Some(0)]
        );
        assert_eq!(c.index[1], NIL);
        assert!(c.access(0, run[1]) && c.access(0, run[2]) && c.access(0, filler));
        assert!(!c.access(0, run[0]));

        // Entries homed at slot 0 sit *behind* a hole at the last slot:
        // home 0 lies in (7, 0] and (7, 1], so neither may move into it.
        let last = rows_homed_at(7).next().unwrap();
        let first: Vec<usize> = rows_homed_at(0).take(2).collect();
        let mut c = EmbeddingCache::new(4);
        for row in [last, first[0], first[1], filler] {
            c.access(0, row);
        }
        c.access(0, newcomer); // evicts `last` from slot 7
        assert_eq!(c.index[7], NIL);
        assert_eq!((slot_of(&c, first[0]), slot_of(&c, first[1])), (Some(0), Some(1)));
        assert!(c.access(0, first[0]) && c.access(0, first[1]));
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = EmbeddingCache::new(4);
        assert!(!c.access(0, 1));
        assert!(c.access(0, 1));
        assert_eq!(c.stats().hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = EmbeddingCache::new(2);
        c.access(0, 1);
        c.access(0, 2);
        c.access(0, 1); // refresh 1; 2 becomes LRU
        c.access(0, 3); // evicts 2
        assert!(c.access(0, 1), "1 should still be cached");
        assert!(!c.access(0, 2), "2 should have been evicted");
    }

    #[test]
    fn distinct_tables_do_not_collide() {
        let mut c = EmbeddingCache::new(4);
        c.access(0, 5);
        assert!(!c.access(1, 5));
    }

    #[test]
    fn capacity_respected() {
        let mut c = EmbeddingCache::new(3);
        for i in 0..10 {
            c.access(0, i);
        }
        assert_eq!(c.nodes.len(), 3);
    }

    #[test]
    fn zipf_traffic_gets_high_hit_rate_with_small_cache() {
        let mut rng = Rng64::new(1);
        let zipf = ZipfSampler::new(100_000, 1.0);
        let mut c = EmbeddingCache::new(1000); // 1% of catalogue
        for _ in 0..20_000 {
            let row = zipf.sample(&mut rng);
            c.access(0, row);
        }
        let hr = c.stats().hit_rate();
        assert!(hr > 0.4, "hit rate {hr} too low for Zipf(1.0) with 1% cache");
    }

    #[test]
    fn uniform_traffic_gets_low_hit_rate() {
        let mut rng = Rng64::new(2);
        let mut c = EmbeddingCache::new(1000);
        for _ in 0..20_000 {
            c.access(0, rng.below(100_000));
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
        let mut c = EmbeddingCache::new(4);
        c.access(0, 1);
        c.reset_stats();
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        assert!(c.access(0, 1), "contents must survive reset");
    }
}
