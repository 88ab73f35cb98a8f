//! Operator-level workload characterization and roofline analysis
//! (paper Sec. V-B: "embedding table operations exhibit orders of
//! magnitude lower compute intensity as compared to CNN and MLP
//! operations").

use crate::model::{Interaction, RecModelConfig};

/// FLOPs and memory traffic of one model component for a single
/// inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpProfile {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes moved to/from memory (parameters + activations).
    pub bytes: u64,
}

impl OpProfile {
    /// Arithmetic intensity in FLOPs per byte.
    pub fn intensity(&self) -> f64 {
        self.flops as f64 / self.bytes.max(1) as f64
    }
}

/// Per-component breakdown of one inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelProfile {
    /// Bottom (dense-feature) MLP stack.
    pub bottom_mlp: OpProfile,
    /// All embedding gather-and-pool operations.
    pub embeddings: OpProfile,
    /// Feature interaction.
    pub interaction: OpProfile,
    /// Top (predictor) MLP stack.
    pub top_mlp: OpProfile,
}

impl ModelProfile {
    /// Whole-model totals.
    pub fn total(&self) -> OpProfile {
        OpProfile {
            flops: self.bottom_mlp.flops
                + self.embeddings.flops
                + self.interaction.flops
                + self.top_mlp.flops,
            bytes: self.bottom_mlp.bytes
                + self.embeddings.bytes
                + self.interaction.bytes
                + self.top_mlp.bytes,
        }
    }
}

fn mlp_profile(dims: &[usize], batch: u64) -> OpProfile {
    let mut flops = 0u64;
    let mut bytes = 0u64;
    for w in dims.windows(2) {
        let (i, o) = (w[0] as u64, w[1] as u64);
        flops += 2 * i * o * batch; // MAC = 2 FLOPs
                                    // Weights and biases are read once per batch (this reuse is what
                                    // makes batched MLPs compute-intense); activations move per sample.
        bytes += (i * o + o) * 4 + (i + o) * 4 * batch;
    }
    OpProfile { flops, bytes }
}

/// Computes the per-component profile of a single-query inference.
pub fn profile(cfg: &RecModelConfig) -> ModelProfile {
    profile_batched(cfg, 1)
}

/// Computes the per-component profile of one batched inference of `batch`
/// queries — the datacenter serving regime the paper's characterization
/// references. MLP weights are amortized over the batch; embedding rows
/// are not (each query gathers its own, mostly distinct, rows).
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn profile_batched(cfg: &RecModelConfig, batch: u64) -> ModelProfile {
    assert!(batch > 0, "batch must be positive");
    let mut bottom_dims = vec![cfg.dense_features];
    bottom_dims.extend_from_slice(&cfg.bottom_mlp);
    let bottom = mlp_profile(&bottom_dims, batch);

    // Embeddings: each lookup reads one row; pooling adds dim FLOPs per
    // extra row. No cross-query reuse is assumed here (the cache module
    // models that separately).
    let mut emb_flops = 0u64;
    let mut emb_bytes = 0u64;
    for &(_, lookups) in &cfg.tables {
        emb_bytes += (lookups * cfg.embedding_dim * 4) as u64 * batch;
        emb_flops += ((lookups.saturating_sub(1)) * cfg.embedding_dim) as u64 * batch;
    }
    let embeddings = OpProfile { flops: emb_flops, bytes: emb_bytes };

    let vectors = cfg.tables.len() as u64 + 1;
    let interaction = match cfg.interaction {
        Interaction::Concat => {
            OpProfile { flops: 0, bytes: vectors * cfg.embedding_dim as u64 * 4 * batch }
        }
        Interaction::DotPairwise => {
            let pairs = vectors * (vectors - 1) / 2;
            OpProfile {
                flops: pairs * 2 * cfg.embedding_dim as u64 * batch,
                bytes: vectors * cfg.embedding_dim as u64 * 4 * batch,
            }
        }
    };

    let mut top_dims = vec![crate::model::RecModel::interaction_width(cfg)];
    top_dims.extend_from_slice(&cfg.top_mlp);
    top_dims.push(1);
    let top = mlp_profile(&top_dims, batch);

    ModelProfile { bottom_mlp: bottom, embeddings, interaction, top_mlp: top }
}

/// Which resource bounds a component on a given machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Limited by arithmetic throughput.
    Compute,
    /// Limited by memory bandwidth.
    Memory,
}

/// A roofline machine model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflineMachine {
    /// Peak arithmetic throughput (FLOP/s).
    pub peak_flops: f64,
    /// Peak memory bandwidth (bytes/s).
    pub mem_bandwidth: f64,
}

impl RooflineMachine {
    /// A server-class CPU with DDR memory (the platform recommendation
    /// inference actually runs on in datacenters, per the cited work).
    pub fn server_cpu() -> Self {
        RooflineMachine { peak_flops: 2.0e12, mem_bandwidth: 100.0e9 }
    }

    /// The machine-balance intensity (FLOPs/byte) where the rooflines
    /// cross.
    pub fn balance(&self) -> f64 {
        self.peak_flops / self.mem_bandwidth
    }

    /// Classifies an operator.
    pub fn bound(&self, p: &OpProfile) -> Bound {
        if p.intensity() >= self.balance() {
            Bound::Compute
        } else {
            Bound::Memory
        }
    }

    /// Estimated execution time (seconds) of one operator invocation:
    /// `max(compute time, memory time)`.
    pub fn time_seconds(&self, p: &OpProfile) -> f64 {
        (p.flops as f64 / self.peak_flops).max(p.bytes as f64 / self.mem_bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RecModelConfig;

    #[test]
    fn embeddings_have_far_lower_intensity_than_mlps() {
        // The paper's headline characterization claim, at a datacenter
        // serving batch size.
        let p = profile_batched(&RecModelConfig::memory_bound(), 128);
        assert!(
            p.bottom_mlp.intensity() > 10.0 * p.embeddings.intensity(),
            "MLP {} vs embeddings {}",
            p.bottom_mlp.intensity(),
            p.embeddings.intensity()
        );
    }

    #[test]
    fn memory_bound_config_is_memory_bound() {
        let m = RooflineMachine::server_cpu();
        let p = profile_batched(&RecModelConfig::memory_bound(), 128);
        assert_eq!(m.bound(&p.embeddings), Bound::Memory);
        // Embedding traffic dominates total time.
        let emb_t = m.time_seconds(&p.embeddings);
        let mlp_t = m.time_seconds(&p.bottom_mlp) + m.time_seconds(&p.top_mlp);
        assert!(emb_t > mlp_t, "embeddings {emb_t} vs MLPs {mlp_t}");
    }

    #[test]
    fn compute_bound_config_is_mlp_dominated() {
        let m = RooflineMachine::server_cpu();
        let p = profile_batched(&RecModelConfig::compute_bound(), 128);
        let emb_t = m.time_seconds(&p.embeddings);
        let mlp_t = m.time_seconds(&p.bottom_mlp) + m.time_seconds(&p.top_mlp);
        assert!(mlp_t > emb_t, "MLPs {mlp_t} vs embeddings {emb_t}");
    }

    #[test]
    fn mlp_profile_counts_macs() {
        let p = mlp_profile(&[10, 20], 1);
        assert_eq!(p.flops, 400);
    }

    #[test]
    fn batching_raises_mlp_intensity_only() {
        let cfg = RecModelConfig::memory_bound();
        let single = profile_batched(&cfg, 1);
        let batched = profile_batched(&cfg, 128);
        assert!(batched.bottom_mlp.intensity() > 10.0 * single.bottom_mlp.intensity());
        let ratio = batched.embeddings.intensity() / single.embeddings.intensity();
        assert!((ratio - 1.0).abs() < 1e-9, "embedding intensity must not change");
    }

    #[test]
    fn pooling_flops_scale_with_lookups() {
        let mut cfg = RecModelConfig::compute_bound();
        cfg.tables = vec![(1000, 1)];
        let single = profile(&cfg).embeddings;
        cfg.tables = vec![(1000, 10)];
        let pooled = profile(&cfg).embeddings;
        assert_eq!(single.flops, 0);
        assert!(pooled.flops > 0);
        assert_eq!(pooled.bytes, 10 * single.bytes);
    }

    #[test]
    fn balance_point_consistency() {
        let m = RooflineMachine::server_cpu();
        let at_balance = OpProfile { flops: m.balance() as u64 * 1000, bytes: 1000 };
        assert_eq!(m.bound(&at_balance), Bound::Compute);
    }
}
