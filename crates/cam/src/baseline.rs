//! The GPU + DRAM memory-search baseline and the TCAM comparison harness
//! (paper Sec. IV-B2: "24× and 2,582× reductions in energy and latency …
//! when a 16T CMOS TCAM replaces DRAM").
//!
//! The baseline models the attentional memory search as it runs on a GPU:
//! the `M × D` FP32 key matrix streams from DRAM, a distance kernel
//! computes cosine similarities, and a reduction kernel finds the best
//! match — two kernel launches per query.

use crate::array::{TcamArray, TcamConfig};
use crate::cells::CellTech;
use enw_numerics::bits::BitVec;
use enw_numerics::rng::Rng64;
use enw_xmann::cost::{Cost, GpuCostParams};

/// Cost of one cosine-similarity memory search over `entries × dim` FP32
/// keys on the GPU baseline.
///
/// Charged: full key-matrix DRAM traffic + 4 FLOPs/element for the
/// distance kernel, then an argmax reduction kernel over the scores.
pub fn gpu_search_cost(entries: usize, dim: usize, params: &GpuCostParams) -> Cost {
    let bytes = (entries * dim * 4) as u64;
    let distance = params.kernel(bytes, 4 * (entries * dim) as u64);
    let reduce = params.kernel((entries * 4) as u64, entries as u64);
    distance + reduce
}

/// One row of the TCAM-vs-GPU comparison table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchComparison {
    /// Stored entries.
    pub entries: usize,
    /// Signature width (TCAM) / feature dims (GPU).
    pub bits: usize,
    /// Cost of one TCAM nearest-match search.
    pub tcam: Cost,
    /// Cost of one GPU cosine search (over `bits`-dimensional FP32 keys).
    pub gpu: Cost,
}

impl SearchComparison {
    /// GPU energy / TCAM energy.
    pub fn energy_reduction(&self) -> f64 {
        self.gpu.energy_pj / self.tcam.energy_pj
    }

    /// GPU latency / TCAM latency.
    pub fn latency_reduction(&self) -> f64 {
        self.gpu.latency_ns / self.tcam.latency_ns
    }
}

/// Builds a TCAM holding `entries` random `bits`-wide signatures and
/// compares one nearest-match search against the GPU baseline searching
/// the same number of `bits`-dimensional FP32 keys.
pub fn compare_search(
    entries: usize,
    bits: usize,
    tech: CellTech,
    cfg: TcamConfig,
    gpu: &GpuCostParams,
    rng: &mut Rng64,
) -> SearchComparison {
    let mut cam = TcamArray::new(bits, tech, cfg);
    for _ in 0..entries {
        let word: BitVec = (0..bits).map(|_| rng.bernoulli(0.5)).collect();
        cam.write(&word);
    }
    let query: BitVec = (0..bits).map(|_| rng.bernoulli(0.5)).collect();
    let (_, tcam_cost) = cam.search_nearest(&query);
    SearchComparison { entries, bits, tcam: tcam_cost, gpu: gpu_search_cost(entries, bits, gpu) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;

    #[test]
    fn gpu_search_pays_two_launches() {
        let p = GpuCostParams::default();
        let c = gpu_search_cost(512, 64, &p);
        assert!(c.latency_ns >= 2.0 * p.kernel_launch_ns);
    }

    #[test]
    fn tcam_beats_gpu_dramatically_on_paper_configuration() {
        // Paper setup: 16T CMOS TCAM replacing DRAM for the memory search.
        // Reported: 24× energy, 2582× latency. Shape check within ~3×.
        let mut rng = Rng64::new(1);
        let cmp = compare_search(
            512,
            64,
            cells::cmos_16t(),
            TcamConfig::default(),
            &GpuCostParams::default(),
            &mut rng,
        );
        let e = cmp.energy_reduction();
        let l = cmp.latency_reduction();
        assert!((8.0..80.0).contains(&e), "energy reduction {e}");
        assert!((800.0..8000.0).contains(&l), "latency reduction {l}");
    }

    #[test]
    fn fefet_adds_its_cell_level_factors() {
        let mut rng = Rng64::new(2);
        let cmos = compare_search(
            512,
            64,
            cells::cmos_16t(),
            TcamConfig::default(),
            &GpuCostParams::default(),
            &mut rng,
        );
        let fefet = compare_search(
            512,
            64,
            cells::fefet_2t(),
            TcamConfig::default(),
            &GpuCostParams::default(),
            &mut rng,
        );
        let extra_e = fefet.energy_reduction() / cmos.energy_reduction();
        let extra_l = fefet.latency_reduction() / cmos.latency_reduction();
        assert!((extra_e - 2.4).abs() < 0.1, "extra energy factor {extra_e}");
        assert!((extra_l - 1.1).abs() < 0.05, "extra latency factor {extra_l}");
    }

    #[test]
    fn latency_reduction_grows_with_entries() {
        // The TCAM search is O(1) in rows; the GPU streams more bytes.
        let mut rng = Rng64::new(3);
        let small = compare_search(
            512,
            64,
            cells::cmos_16t(),
            TcamConfig::default(),
            &GpuCostParams::default(),
            &mut rng,
        );
        let large = compare_search(
            65_536,
            64,
            cells::cmos_16t(),
            TcamConfig::default(),
            &GpuCostParams::default(),
            &mut rng,
        );
        assert!(large.latency_reduction() > small.latency_reduction());
    }
}
