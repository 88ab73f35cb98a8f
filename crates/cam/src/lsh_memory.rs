//! A complete CAM-based MANN memory: the key–value lifelong memory of
//! `enw-mann` re-implemented with LSH signatures stored in a TCAM array
//! (paper Fig. 5 — "GPU-based vs. TCAM-based MANNs").
//!
//! Real-valued keys hash to binary signatures; retrieval is one parallel
//! nearest-Hamming search; updates rewrite TCAM words. Every operation
//! returns its hardware cost, so end-to-end few-shot episodes can be both
//! *scored* (accuracy) and *billed* (energy/latency) on the same run.

use crate::array::{NearestHit, TcamArray, TcamConfig};
use crate::cells::CellTech;
use enw_mann::lsh::RandomHyperplaneLsh;
use enw_numerics::bits::BitVec;
use enw_numerics::rng::Rng64;
use enw_xmann::cost::Cost;

/// Retrieval result from the TCAM memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamRetrieval {
    /// Stored value (class label) of the best match.
    pub value: usize,
    /// Hamming distance of the match.
    pub distance: usize,
    /// Slot index.
    pub slot: usize,
}

/// A key–value memory whose keys live in a TCAM as LSH signatures.
///
/// # Example
///
/// ```
/// use enw_cam::lsh_memory::TcamKeyValueMemory;
/// use enw_cam::{cells, array::TcamConfig};
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let mut mem = TcamKeyValueMemory::new(
///     16, 8, 64, cells::cmos_16t(), TcamConfig::default(), &mut rng);
/// mem.update(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3);
/// let (hit, _cost) = mem.retrieve(&[0.9, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
/// assert_eq!(hit.expect("non-empty").value, 3);
/// ```
#[derive(Debug, Clone)]
pub struct TcamKeyValueMemory {
    lsh: RandomHyperplaneLsh,
    cam: TcamArray,
    /// Signature of the key in hand, reused across `retrieve`/`update`.
    sig: BitVec,
    /// The key's hyperplane projections, staged while it is hashed.
    projections: Vec<f32>,
    values: Vec<usize>,
    ages: Vec<u64>,
    capacity: usize,
    clock: u64,
}

impl TcamKeyValueMemory {
    /// An empty memory of `capacity` slots for `dim`-dimensional keys
    /// hashed to `planes`-bit signatures.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(
        capacity: usize,
        dim: usize,
        planes: usize,
        tech: CellTech,
        cfg: TcamConfig,
        rng: &mut Rng64,
    ) -> Self {
        assert!(capacity > 0, "degenerate memory");
        TcamKeyValueMemory {
            lsh: RandomHyperplaneLsh::new(planes, dim, rng),
            cam: TcamArray::new(planes, tech, cfg),
            sig: BitVec::zeros(planes),
            projections: vec![0.0; planes],
            values: Vec::new(),
            ages: Vec::new(),
            capacity,
            clock: 0,
        }
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total hardware cost accumulated by the underlying TCAM.
    pub fn total_cost(&self) -> Cost {
        self.cam.total_cost()
    }

    /// Retrieves the nearest stored key (one parallel TCAM search).
    pub fn retrieve(&mut self, query: &[f32]) -> (Option<TcamRetrieval>, Cost) {
        self.lsh.encode_into(query, &mut self.projections, &mut self.sig);
        let (hit, cost) = self.cam.search_nearest(&self.sig);
        let r = hit.map(|NearestHit { index, distance }| TcamRetrieval {
            value: self.values[index],
            distance,
            slot: index,
        });
        (r, cost)
    }

    /// Lifelong-memory update: correct retrievals refresh the slot's age
    /// and rewrite its signature with the fresh query; wrong or empty
    /// retrievals claim a free slot or evict the oldest.
    ///
    /// Returns the written slot and the hardware cost.
    pub fn update(&mut self, query: &[f32], value: usize) -> (usize, Cost) {
        self.clock += 1;
        self.lsh.encode_into(query, &mut self.projections, &mut self.sig);
        let mut cost = Cost::zero();
        let retrieved = if self.values.is_empty() {
            None
        } else {
            let (hit, c) = self.cam.search_nearest(&self.sig);
            cost += c;
            hit
        };
        if let Some(hit) = retrieved {
            if self.values[hit.index] == value {
                cost += self.cam.rewrite(hit.index, &self.sig);
                self.ages[hit.index] = self.clock;
                return (hit.index, cost);
            }
        }
        if self.values.len() < self.capacity {
            let (slot, c) = self.cam.write(&self.sig);
            cost += c;
            self.values.push(value);
            self.ages.push(self.clock);
            (slot, cost)
        } else {
            // `unwrap_or(0)`: at capacity the range is non-empty, and slot 0
            // is a correct (if arbitrary) victim in the impossible branch.
            let oldest = (0..self.values.len()).min_by_key(|&s| self.ages[s]).unwrap_or(0);
            cost += self.cam.rewrite(oldest, &self.sig);
            self.values[oldest] = value;
            self.ages[oldest] = self.clock;
            (oldest, cost)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;

    fn mem(capacity: usize, rng: &mut Rng64) -> TcamKeyValueMemory {
        TcamKeyValueMemory::new(capacity, 8, 128, cells::cmos_16t(), TcamConfig::default(), rng)
    }

    fn unit(hot: usize) -> Vec<f32> {
        let mut v = vec![0.0; 8];
        v[hot] = 1.0;
        v
    }

    #[test]
    fn owned_buffers_hold_no_stale_state() {
        // A warm memory and a clone whose projections arrive full of NaN
        // and whose signature all ones agree on every retrieval and update.
        let mut rng = Rng64::new(5);
        let mut m = mem(4, &mut rng);
        m.update(&unit(0), 0);
        let mut dirty = m.clone();
        for label in 0..8 {
            let key: Vec<f32> = (0..8).map(|_| rng.normal() as f32).collect();
            dirty.projections.fill(f32::NAN);
            dirty.sig = BitVec::from_bools(&[true; 128]);
            assert_eq!(dirty.retrieve(&key), m.retrieve(&key));
            dirty.projections.fill(f32::NAN);
            assert_eq!(dirty.update(&key, label % 3), m.update(&key, label % 3));
        }
    }

    #[test]
    fn one_shot_store_and_retrieve() {
        let mut rng = Rng64::new(1);
        let mut m = mem(8, &mut rng);
        m.update(&unit(2), 42);
        let (hit, _) = m.retrieve(&unit(2));
        assert_eq!(hit.expect("non-empty").value, 42);
    }

    #[test]
    fn retrieval_is_noise_tolerant() {
        let mut rng = Rng64::new(2);
        let mut m = mem(8, &mut rng);
        m.update(&unit(0), 1);
        m.update(&unit(4), 2);
        let mut q = unit(0);
        q[1] = 0.3; // perturb
        let (hit, _) = m.retrieve(&q);
        assert_eq!(hit.expect("non-empty").value, 1);
    }

    #[test]
    fn eviction_at_capacity() {
        let mut rng = Rng64::new(3);
        let mut m = mem(2, &mut rng);
        m.update(&unit(0), 0);
        m.update(&unit(1), 1);
        m.update(&unit(2), 2); // evicts the oldest (class 0)
        assert_eq!(m.len(), 2);
        let (hit, _) = m.retrieve(&unit(2));
        assert_eq!(hit.expect("non-empty").value, 2);
    }

    #[test]
    fn costs_accumulate_per_operation() {
        let mut rng = Rng64::new(4);
        let mut m = mem(8, &mut rng);
        let (_, c1) = m.update(&unit(0), 0);
        assert!(c1.energy_pj > 0.0);
        let before = m.total_cost();
        m.retrieve(&unit(0));
        assert!(m.total_cost().energy_pj > before.energy_pj);
    }

    #[test]
    fn agrees_with_reference_memory_on_clean_inputs() {
        // The TCAM memory and an FP32 cosine nearest neighbour over the
        // same keys should retrieve the same classes for well-separated
        // keys.
        use enw_mann::memory::Similarity;
        let mut rng = Rng64::new(5);
        let mut hw = mem(8, &mut rng);
        let stored = [(0usize, 10usize), (3, 11), (6, 12)];
        for (i, label) in stored {
            hw.update(&unit(i), label);
        }
        let score = |q: usize, k: usize| Similarity::Cosine.score(&unit(q), &unit(k));
        for q in [0usize, 3, 6] {
            let (h, _) = hw.retrieve(&unit(q));
            let best = stored.iter().max_by(|a, b| score(q, a.0).total_cmp(&score(q, b.0)));
            assert_eq!(h.expect("non-empty").value, best.expect("non-empty").1);
        }
    }
}
