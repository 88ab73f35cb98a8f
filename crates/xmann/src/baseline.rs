//! The GPU + DRAM baseline that X-MANN is compared against (paper
//! Sec. III-B).
//!
//! Every differentiable-memory kernel on a GPU must stream the entire
//! memory matrix out of DRAM: similarity scans read all `M × D` words,
//! soft reads do the same, and soft writes read *and* write them. The
//! baseline executes the same functional operations as [`crate::arch::Xmann`]
//! and charges the GPU cost model.

use crate::arch::OpResult;
use crate::cost::{Cost, GpuCostParams};
use enw_mann::memory::{DifferentiableMemory, Similarity};
use enw_numerics::vector::softmax_in_place;

/// A GPU implementation of the MANN differentiable memory.
///
/// # Example
///
/// ```
/// use enw_xmann::baseline::GpuMann;
/// use enw_xmann::cost::GpuCostParams;
///
/// let mut gpu = GpuMann::new(1024, 64, GpuCostParams::default());
/// let sim = gpu.similarity(&vec![0.1f32; 64]);
/// assert_eq!(sim.value.len(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct GpuMann {
    memory: DifferentiableMemory,
    params: GpuCostParams,
    total: Cost,
}

impl GpuMann {
    /// Builds a GPU-resident memory of `slots × dim`.
    pub fn new(slots: usize, dim: usize, params: GpuCostParams) -> Self {
        GpuMann { memory: DifferentiableMemory::new(slots, dim), params, total: Cost::zero() }
    }

    /// The stored memory.
    pub fn memory(&self) -> &DifferentiableMemory {
        &self.memory
    }

    /// Accumulated cost.
    pub fn total_cost(&self) -> Cost {
        self.total
    }

    /// Loads memory contents (uncharged initialization).
    pub fn load_memory(&mut self, rows: &[Vec<f32>]) {
        for (i, r) in rows.iter().enumerate() {
            self.memory.write_slot(i, r);
        }
    }

    fn footprint_bytes(&self) -> u64 {
        (self.memory.slots() * self.memory.dim() * 4) as u64
    }

    /// Cosine-similarity scan of the query against every row: reads the
    /// whole memory, ~4 FLOPs per element (multiply, two norm accumulations,
    /// and the normalization amortized).
    ///
    /// # Panics
    ///
    /// Panics if the query width mismatches.
    pub fn similarity(&mut self, query: &[f32]) -> OpResult<Vec<f32>> {
        let mut value = vec![0.0f32; self.memory.slots()];
        self.memory.similarities_into(query, Similarity::Cosine, &mut value);
        let elems = (self.memory.slots() * self.memory.dim()) as u64;
        let cost = self.params.kernel(self.footprint_bytes(), 4 * elems);
        self.total += cost;
        OpResult { value, cost }
    }

    /// Content addressing: similarity scan + softmax kernel.
    pub fn content_address(&mut self, query: &[f32], beta: f32) -> OpResult<Vec<f32>> {
        let OpResult { mut value, cost } = self.similarity(query);
        softmax_in_place(&mut value, beta);
        let soft =
            self.params.kernel((self.memory.slots() * 4) as u64, 3 * self.memory.slots() as u64);
        self.total += soft;
        OpResult { value, cost: cost + soft }
    }

    /// Soft read: weighted sum over all rows (full memory traffic, 2 FLOPs
    /// per element).
    pub fn soft_read(&mut self, weights: &[f32]) -> OpResult<Vec<f32>> {
        let mut value = vec![0.0f32; self.memory.dim()];
        self.memory.soft_read_into(weights, &mut value);
        let elems = (self.memory.slots() * self.memory.dim()) as u64;
        let cost = self.params.kernel(self.footprint_bytes(), 2 * elems);
        self.total += cost;
        OpResult { value, cost }
    }

    /// Soft write: reads and writes every element (double traffic,
    /// 4 FLOPs per element for erase-and-add).
    pub fn soft_write(&mut self, weights: &[f32], erase: &[f32], add: &[f32]) -> OpResult<()> {
        self.memory.soft_write(weights, erase, add);
        let elems = (self.memory.slots() * self.memory.dim()) as u64;
        let cost = self.params.kernel(2 * self.footprint_bytes(), 4 * elems);
        self.total += cost;
        OpResult { value: (), cost }
    }

    /// Hard slot write (still a kernel launch + one row of traffic).
    pub fn write_slot(&mut self, slot: usize, word: &[f32]) -> Cost {
        self.memory.write_slot(slot, word);
        let cost = self.params.kernel((word.len() * 4) as u64, 0);
        self.total += cost;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuMann {
        let mut g = GpuMann::new(4, 3, GpuCostParams::default());
        g.load_memory(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.5, 0.5, 0.0],
        ]);
        g
    }

    #[test]
    fn functional_results_match_reference_memory() {
        let mut g = gpu();
        let w = [0.5f32, 0.5, 0.0, 0.0];
        let mut reference = vec![0.0f32; 3];
        g.memory().soft_read_into(&w, &mut reference);
        assert_eq!(g.soft_read(&w).value, reference);
    }

    #[test]
    fn similarity_uses_cosine() {
        let mut g = gpu();
        let s = g.similarity(&[1.0, 0.0, 0.0]);
        assert!((s.value[0] - 1.0).abs() < 1e-5);
        assert!(s.value[1].abs() < 1e-5);
    }

    #[test]
    fn every_op_pays_kernel_launch() {
        let mut g = gpu();
        let c = g.soft_read(&[0.25; 4]).cost;
        assert!(c.latency_ns >= GpuCostParams::default().kernel_launch_ns);
    }

    #[test]
    fn soft_write_costs_double_traffic() {
        let mut g = gpu();
        let r = g.soft_read(&[0.25; 4]).cost;
        let w = g.soft_write(&[1.0, 0.0, 0.0, 0.0], &[0.0; 3], &[0.0; 3]).cost;
        assert!(w.energy_pj > r.energy_pj * 1.5);
    }

    #[test]
    fn cost_grows_linearly_with_memory() {
        let mut small = GpuMann::new(128, 64, GpuCostParams::default());
        let mut large = GpuMann::new(1280, 64, GpuCostParams::default());
        let es = small.similarity(&vec![0.1; 64]).cost.energy_pj;
        let el = large.similarity(&vec![0.1; 64]).cost.energy_pj;
        assert!((el / es - 10.0).abs() < 0.5);
    }
}
