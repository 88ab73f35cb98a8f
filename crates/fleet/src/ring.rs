//! Consistent-hash routing ring with virtual nodes and a bounded-load
//! pick (paper Sec. V-B at deployment scale: requests must land on the
//! replica that holds the right shard without a central dispatcher, and
//! membership changes must move only ~K/N of the key space).
//!
//! Every placement decision is a pure function of `(key, membership)`:
//! hashing is a fixed 64-bit finalizer, ties break on `(point, node)`,
//! and the point list is kept sorted — so two rings built through any
//! add/remove history that ends in the same member set route every key
//! identically, which is what makes autoscaling reproducible.

/// The classic 64-bit splitmix finalizer: full-avalanche, cheap, and —
/// unlike a hash *map* — a fixed function, so ring placement never
/// depends on process-level seeding (enw-analyze rule ENW-D003).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Where `key` lands on the circle.
#[inline]
pub fn key_point(key: u64) -> u64 {
    mix64(key)
}

/// The circle position of replica `node`'s `vnode`-th virtual point.
/// Domain-separated from [`key_point`] so a node id never collides with
/// the key that hashes to the same integer.
#[inline]
fn vnode_point(node: u32, vnode: u32) -> u64 {
    mix64(0x5bd1_e995 ^ ((node as u64) << 32) ^ (vnode as u64).wrapping_mul(0x9e37_79b9))
}

/// A consistent-hash ring over replica ids.
///
/// # Example
///
/// ```
/// use enw_fleet::ring::HashRing;
///
/// let mut ring = HashRing::with_nodes(16, 4);
/// let before = ring.primary(42);
/// ring.add_node(4);
/// // The key either kept its owner or moved to the new node — never to
/// // an unrelated survivor.
/// let after = ring.primary(42);
/// assert!(after == before || after == Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    vnodes: u32,
    /// Sorted `(point, node)` pairs; the tuple order is the tie-break.
    points: Vec<(u64, u32)>,
    /// Sorted live member ids.
    nodes: Vec<u32>,
}

impl HashRing {
    /// An empty ring placing `vnodes` virtual points per member.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn new(vnodes: u32) -> Self {
        assert!(vnodes > 0, "a ring needs at least one virtual point per node");
        HashRing { vnodes, points: Vec::new(), nodes: Vec::new() }
    }

    /// A ring pre-populated with members `0..n`.
    pub fn with_nodes(vnodes: u32, n: u32) -> Self {
        let mut ring = HashRing::new(vnodes);
        for id in 0..n {
            ring.add_node(id);
        }
        ring
    }

    /// Virtual points per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Live member count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Live member ids, ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: u32) -> bool {
        self.nodes.binary_search(&id).is_ok()
    }

    /// True when no member is present.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds member `id`, inserting its virtual points.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already a member.
    pub fn add_node(&mut self, id: u32) {
        let slot = self.nodes.partition_point(|&n| n < id);
        assert!(self.nodes.get(slot) != Some(&id), "node {id} is already on the ring");
        self.nodes.insert(slot, id);
        for v in 0..self.vnodes {
            let p = (vnode_point(id, v), id);
            let at = match self.points.binary_search(&p) {
                Ok(at) | Err(at) => at,
            };
            self.points.insert(at, p);
        }
    }

    /// Removes member `id` and all its virtual points.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member.
    pub fn remove_node(&mut self, id: u32) {
        let slot = self.nodes.partition_point(|&n| n < id);
        assert!(self.nodes.get(slot) == Some(&id), "node {id} is not on the ring");
        self.nodes.remove(slot);
        self.points.retain(|&(_, n)| n != id);
    }

    /// Writes the first `out.len()` *distinct* members clockwise from
    /// `key`'s point into `out` (the replica set: `out[0]` is the
    /// primary) and returns how many were found — less than `out.len()`
    /// only when the ring has fewer members. Allocation-free; distinct
    /// because a replica set with one node twice replicates nothing.
    // enw:hot
    pub fn owners_into(&self, key: u64, out: &mut [u32]) -> usize {
        if self.points.is_empty() || out.is_empty() {
            return 0;
        }
        let start = self.points.partition_point(|&(p, _)| p < key_point(key));
        let mut found = 0usize;
        for step in 0..self.points.len() {
            let (_, node) = self.points[(start + step) % self.points.len()];
            if !out[..found].contains(&node) {
                out[found] = node;
                found += 1;
                if found == out.len() {
                    break;
                }
            }
        }
        found
    }

    /// The first member clockwise from `key`'s point, if any.
    pub fn primary(&self, key: u64) -> Option<u32> {
        let mut one = [0u32; 1];
        if self.owners_into(key, &mut one) == 1 {
            let [owner] = one;
            Some(owner)
        } else {
            None
        }
    }

    /// Bounded-load pick: the first member clockwise from `key` whose
    /// reported `load` is below `cap`. Overloaded members are skipped
    /// (their keys spill to the next member clockwise, the bounded-load
    /// consistent-hashing rule), so one hot key cannot sink its primary.
    /// Returns `None` when every member is at capacity — the admission
    /// layer's cue to reject.
    // enw:hot
    pub fn pick_bounded(&self, key: u64, cap: usize, load: impl Fn(u32) -> usize) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(p, _)| p < key_point(key));
        // Every member contributes `vnodes` points, so one lap around
        // the circle provably consults every member.
        for step in 0..self.points.len() {
            let (_, node) = self.points[(start + step) % self.points.len()];
            if load(node) < cap {
                return Some(node);
            }
        }
        None
    }

    /// How many of the probe keys `0..probes` have `node` as primary.
    ///
    /// This prices a one-member change on one ring: adding `node` moves
    /// exactly the keys it then owns (every other key's first clockwise
    /// point is unchanged), and removing it moves exactly the keys it
    /// owned. So count on the ring *after* an add and *before* a remove.
    pub fn keys_owned(&self, node: u32, probes: u64) -> u64 {
        (0..probes).filter(|&k| self.primary(k) == Some(node)).count() as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// How many of the probe keys `0..probes` changed primary between
    /// `before` and `after`: the two-ring count [`HashRing::keys_owned`]
    /// replaced, kept as its oracle.
    pub(crate) fn moved_keys(before: &HashRing, after: &HashRing, probes: u64) -> u64 {
        (0..probes).filter(|&k| before.primary(k) != after.primary(k)).count() as u64
    }

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = HashRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.primary(7), None);
        let mut out = [0u32; 3];
        assert_eq!(ring.owners_into(7, &mut out), 0);
        assert_eq!(ring.pick_bounded(7, 10, |_| 0), None);
    }

    #[test]
    fn owners_are_distinct_and_capped_by_membership() {
        let ring = HashRing::with_nodes(16, 3);
        let mut out = [u32::MAX; 5];
        let n = ring.owners_into(99, &mut out);
        assert_eq!(n, 3, "only 3 members exist");
        let mut seen = out[..n].to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "owners must be distinct");
    }

    #[test]
    fn add_remove_round_trips_routing() {
        let mut ring = HashRing::with_nodes(16, 4);
        let before: Vec<_> = (0..512).map(|k| ring.primary(k)).collect();
        ring.add_node(9);
        ring.remove_node(9);
        let after: Vec<_> = (0..512).map(|k| ring.primary(k)).collect();
        assert_eq!(before, after, "membership round trip changed routing");
    }

    #[test]
    fn removal_moves_only_the_lost_nodes_keys() {
        let mut ring = HashRing::with_nodes(32, 5);
        let before: Vec<_> = (0..2048).map(|k| ring.primary(k)).collect();
        ring.remove_node(2);
        for (k, b) in before.iter().enumerate() {
            let now = ring.primary(k as u64);
            if *b != Some(2) {
                assert_eq!(now, *b, "key {k} moved although its owner survived");
            } else {
                assert_ne!(now, Some(2));
            }
        }
    }

    #[test]
    fn bounded_load_spills_past_full_nodes() {
        let ring = HashRing::with_nodes(16, 4);
        let key = 1234u64;
        let primary = ring.primary(key).expect("ring has members");
        // Saturate the primary: the pick must land elsewhere.
        let spilled = ring
            .pick_bounded(key, 8, |n| if n == primary { 8 } else { 0 })
            .expect("other members have room");
        assert_ne!(spilled, primary);
        // Saturate everyone: admission must see None.
        assert_eq!(ring.pick_bounded(key, 8, |_| 8), None);
    }

    #[test]
    fn moved_keys_counts_the_rebalance() {
        let mut ring = HashRing::with_nodes(32, 8);
        let before = ring.clone();
        ring.add_node(8);
        let moved = ring.keys_owned(8, 4096);
        assert_eq!(moved, moved_keys(&before, &ring, 4096));
        // ~1/9 of the key space should move to the newcomer; allow slack.
        assert!(moved > 0);
        assert!((moved as f64) < 0.30 * 4096.0, "moved {moved} of 4096 keys");
    }

    #[test]
    #[should_panic(expected = "already on the ring")]
    fn double_add_is_rejected() {
        let mut ring = HashRing::with_nodes(4, 2);
        ring.add_node(1);
    }

    #[test]
    #[should_panic(expected = "not on the ring")]
    fn removing_a_stranger_is_rejected() {
        let mut ring = HashRing::with_nodes(4, 2);
        ring.remove_node(7);
    }
}
