//! The MANN benchmark suite and the X-MANN-vs-GPU comparison harness
//! (paper Sec. III-B: "a suite of MANN benchmarks with diverse memory
//! capacities").

use crate::arch::{Xmann, XmannConfig};
use crate::baseline::GpuMann;
use crate::cost::{Cost, GpuCostParams, XmannCostParams};
use enw_numerics::rng::Rng64;

/// One MANN benchmark: a differentiable-memory working set and an episode
/// of memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MannBenchmark {
    /// Human-readable name.
    pub name: &'static str,
    /// Memory slots.
    pub slots: usize,
    /// Feature width.
    pub dim: usize,
    /// Queries per episode; each query performs one content-address
    /// (similarity + softmax), one soft read and one soft write —
    /// the NTM inner loop.
    pub queries: usize,
}

/// The benchmark suite: capacities spanning small episodic tasks to the
/// "thousands to millions of memory locations" the paper warns about.
pub fn benchmark_suite() -> Vec<MannBenchmark> {
    vec![
        MannBenchmark { name: "omniglot-episodic", slots: 4096, dim: 64, queries: 32 },
        MannBenchmark { name: "babi-qa", slots: 16_384, dim: 64, queries: 32 },
        MannBenchmark { name: "graph-traversal", slots: 65_536, dim: 96, queries: 32 },
        MannBenchmark { name: "london-underground", slots: 131_072, dim: 96, queries: 32 },
        MannBenchmark { name: "rare-events-lm", slots: 524_288, dim: 128, queries: 32 },
    ]
}

/// Comparison outcome for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Which benchmark.
    pub name: &'static str,
    /// Memory slots (for the table).
    pub slots: usize,
    /// Total cost on X-MANN.
    pub xmann: Cost,
    /// Total cost on the GPU baseline.
    pub gpu: Cost,
}

impl Comparison {
    /// GPU latency / X-MANN latency.
    pub fn speedup(&self) -> f64 {
        self.gpu.latency_ns / self.xmann.latency_ns
    }

    /// GPU energy / X-MANN energy.
    pub fn energy_reduction(&self) -> f64 {
        self.gpu.energy_pj / self.xmann.energy_pj
    }
}

/// Runs one benchmark on both platforms with identical inputs and memory
/// contents; returns the accounted costs.
///
/// Only costs are compared. Each platform addresses with its own
/// similarity (cosine on the GPU, the dot/L1 crossbar scheme on X-MANN),
/// matching the paper's setups, so their attention weights differ, and
/// with them what the soft reads return and the soft writes store. Given
/// the same weights, the two platforms' reads and writes agree bit for
/// bit (a test below holds that).
pub fn run_benchmark(
    bench: &MannBenchmark,
    xmann_cfg: XmannConfig,
    xmann_params: XmannCostParams,
    gpu_params: GpuCostParams,
    rng: &mut Rng64,
) -> Comparison {
    let mut x = Xmann::new(bench.slots, bench.dim, xmann_cfg, xmann_params);
    let mut g = GpuMann::new(bench.slots, bench.dim, gpu_params);
    // Identical random memory contents.
    let rows: Vec<Vec<f32>> = (0..bench.slots)
        .map(|_| (0..bench.dim).map(|_| rng.range(-0.5, 0.5) as f32).collect())
        .collect();
    x.load_memory(&rows);
    g.load_memory(&rows);
    let erase = vec![0.5f32; bench.dim];
    let (mut wx, mut rx) = (vec![0.0f32; bench.slots], vec![0.0f32; bench.dim]);
    for _ in 0..bench.queries {
        let q: Vec<f32> = (0..bench.dim).map(|_| rng.range(-1.0, 1.0) as f32).collect();
        x.content_address_into(&q, 5.0, &mut wx);
        let wg = g.content_address(&q, 5.0);
        x.soft_read_into(&wx, &mut rx);
        g.soft_read(&wg.value);
        x.soft_write(&wx, &erase, &q);
        g.soft_write(&wg.value, &erase, &q);
    }
    Comparison { name: bench.name, slots: bench.slots, xmann: x.total_cost(), gpu: g.total_cost() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_diverse_capacities() {
        let suite = benchmark_suite();
        assert!(suite.len() >= 5);
        let min = suite.iter().map(|b| b.slots).min().expect("non-empty");
        let max = suite.iter().map(|b| b.slots).max().expect("non-empty");
        assert!(max / min >= 100, "capacities must span orders of magnitude");
    }

    #[test]
    fn xmann_wins_on_small_benchmark() {
        let mut rng = Rng64::new(1);
        let bench = MannBenchmark { name: "tiny", slots: 2048, dim: 64, queries: 4 };
        let cmp = run_benchmark(
            &bench,
            XmannConfig::default(),
            XmannCostParams::default(),
            GpuCostParams::default(),
            &mut rng,
        );
        assert!(cmp.speedup() > 1.0, "speedup {}", cmp.speedup());
        assert!(cmp.energy_reduction() > 1.0, "energy {}", cmp.energy_reduction());
    }

    #[test]
    fn gains_in_paper_ballpark_on_midsize_benchmark() {
        // Paper Sec. III-B: 23.7–45.7× speedup, 75.1–267.1× energy. Our
        // substitute cost model should land within a factor ~3 of those
        // bands (shape check, not absolute-number check).
        let mut rng = Rng64::new(2);
        let bench = MannBenchmark { name: "mid", slots: 65_536, dim: 64, queries: 4 };
        let cmp = run_benchmark(
            &bench,
            XmannConfig::default(),
            XmannCostParams::default(),
            GpuCostParams::default(),
            &mut rng,
        );
        let s = cmp.speedup();
        let e = cmp.energy_reduction();
        assert!((8.0..150.0).contains(&s), "speedup {s} outside plausibility band");
        assert!((25.0..800.0).contains(&e), "energy reduction {e} outside plausibility band");
    }

    #[test]
    fn energy_reduction_grows_with_capacity() {
        // The GPU pays DRAM traffic linear in capacity; X-MANN pays mostly
        // peripheral costs. Bigger memory → bigger advantage, the trend
        // behind the paper's range of ratios.
        let mut rng = Rng64::new(3);
        let small = run_benchmark(
            &MannBenchmark { name: "s", slots: 4096, dim: 64, queries: 2 },
            XmannConfig::default(),
            XmannCostParams::default(),
            GpuCostParams::default(),
            &mut rng,
        );
        let large = run_benchmark(
            &MannBenchmark { name: "l", slots: 262_144, dim: 64, queries: 2 },
            XmannConfig::default(),
            XmannCostParams::default(),
            GpuCostParams::default(),
            &mut rng,
        );
        assert!(large.speedup() > small.speedup());
    }

    #[test]
    fn soft_read_and_write_agree_bit_for_bit_given_the_same_weights() {
        // Widths off every lane multiple, and zero weights, which the
        // soft write skips.
        let (slots, dim) = (301, 70);
        let mut rng = Rng64::new(4);
        let rows: Vec<Vec<f32>> =
            (0..slots).map(|_| (0..dim).map(|_| rng.range(-0.5, 0.5) as f32).collect()).collect();
        let mut x = Xmann::new(slots, dim, XmannConfig::default(), XmannCostParams::default());
        let mut g = GpuMann::new(slots, dim, GpuCostParams::default());
        x.load_memory(&rows);
        g.load_memory(&rows);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        let erase = vec![0.5f32; dim];
        let mut rx = vec![0.0f32; dim];
        for step in 0..3 {
            let mut w: Vec<f32> = (0..slots).map(|_| rng.range(0.0, 1.0) as f32).collect();
            w.iter_mut().step_by(3 + step).for_each(|v| *v = 0.0);
            let add: Vec<f32> = (0..dim).map(|_| rng.range(-1.0, 1.0) as f32).collect();
            x.soft_read_into(&w, &mut rx);
            assert_eq!(bits(&rx), bits(&g.soft_read(&w).value), "soft read, step {step}");
            x.soft_write(&w, &erase, &add);
            g.soft_write(&w, &erase, &add);
            assert_eq!(
                bits(x.memory().matrix().as_slice()),
                bits(g.memory().matrix().as_slice()),
                "memory after soft write, step {step}"
            );
        }
    }
}
