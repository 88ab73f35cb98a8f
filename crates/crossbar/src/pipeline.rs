//! Streaming tiled analog-training pipeline — deep conv/MLP stacks on
//! tile grids, resumable and allocation-free in steady state.
//!
//! This module closes the loop the paper's Sec. II opens: training a
//! *deep* network when every weight array is a grid of analog crossbar
//! tiles. It wires three pieces together:
//!
//! * a [`ConvNet`] whose every backend is a [`TiledAnalogLayer`]
//!   (conv layers lower to im2col patches, so conv training becomes a
//!   stream of tiled crossbar cycles);
//! * a **double-buffered input stage**: while step *k*'s stochastic
//!   pulse updates are applied, step *k+1*'s sample is staged into the
//!   inactive buffer — the overlap a real accelerator gets from DMA.
//!   On this simulator the overlap is modeled on a **virtual clock**:
//!   `t_step = t_fwd/bwd + max(t_update, t_prefetch)`, with cycle
//!   counts taken from the tiles' own [`TileStats`] deltas (an analog
//!   read is O(1) in array size, so time counts *cycles*, not MACs);
//! * **bit-reproducible checkpoint/resume** via [`enw_nn::snapshot`]:
//!   the checkpoint carries every piece of mutable state — tile
//!   conductances, per-tile RNG streams, pulse counters, the shuffle
//!   RNG, the epoch order, both staging buffers, and the virtual
//!   clock — so a restored pipeline continues byte-identically to an
//!   uninterrupted run.
//!
//! Steady-state steps are allocation-free: the staging buffers, the
//! epoch order, and every activation/gradient buffer inside the network
//! are sized at construction, and the tile fan-outs use the result-free
//! `enw-parallel` entry points (E21's counting-allocator gate enforces
//! this end to end).

use crate::device::DeviceSpec;
use crate::tile::{TileConfig, TileStats};
use crate::tiled::{TiledAnalogLayer, TilingConfig};
use enw_nn::conv::{ConvNet, ConvNetConfig};
use enw_nn::data::Dataset;
use enw_nn::snapshot::{check_dim, SnapshotError, StateReader, StateWriter};
use enw_numerics::error::{check, ConfigError};
use enw_numerics::rng::{Rng64, RngState};

/// One analog tile read cycle (forward or backward) in virtual
/// nanoseconds. O(1) in array size — the crossbar's defining property.
const T_READ_NS: u64 = 100;
/// One parallel stochastic pulse-update cycle in virtual nanoseconds
/// (BL pulse trains are longer than a read).
const T_UPDATE_NS: u64 = 200;
/// Modeled staging bandwidth: virtual nanoseconds per byte copied into
/// the inactive input buffer.
const PREFETCH_NS_PER_BYTE: u64 = 1;

/// Everything needed to (re)build an [`AnalogPipeline`] deterministically.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Network architecture (conv stages, embedding, head).
    pub net: ConvNetConfig,
    /// Crosspoint device technology for every tile.
    pub spec: DeviceSpec,
    /// Tile periphery/update realization.
    pub tile: TileConfig,
    /// How each layer's weight matrix is sharded into tiles.
    pub tiling: TilingConfig,
    /// SGD learning rate.
    pub lr: f32,
    /// Seed for network construction and the epoch shuffle stream.
    pub seed: u64,
}

/// A resumable streaming trainer for a deep network whose every weight
/// array is a [`TiledAnalogLayer`].
///
/// Construction is a pure function of ([`PipelineConfig`], dataset
/// size), so checkpoints only carry mutable state; restoring into a
/// freshly built pipeline resumes bit-identically.
#[derive(Debug, Clone)]
pub struct AnalogPipeline {
    net: ConvNet<TiledAnalogLayer>,
    lr: f32,
    /// Shuffle stream for the epoch order (serialized in checkpoints).
    rng: Rng64,
    /// Sample visit order for the current epoch, reshuffled in place at
    /// each epoch boundary.
    order: Vec<usize>,
    /// Position within `order` of the *staged* (next) sample.
    cursor: usize,
    /// Double-buffered input stage; `staging[cur]` holds the sample the
    /// next [`step`](AnalogPipeline::step) consumes.
    staging: [Vec<f32>; 2],
    staged_label: [usize; 2],
    cur: usize,
    steps: u64,
    epochs: u64,
    clock_ns: u64,
}

impl AnalogPipeline {
    /// Builds the tiled network and stages the first sample.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the dataset is empty or the
    /// architecture/tiling is degenerate.
    pub fn new(cfg: &PipelineConfig, data: &Dataset) -> Result<Self, ConfigError> {
        check(!data.is_empty(), "pipeline needs a non-empty dataset")?;
        check(
            cfg.net.input.len() == data.input(0).len(),
            "dataset sample size does not match the network input shape",
        )?;
        let mut rng = Rng64::new(cfg.seed);
        let (spec, tile, tiling) = (&cfg.spec, cfg.tile, cfg.tiling);
        let net = ConvNet::try_with_backends(&cfg.net, &mut rng, |in_dim, out_dim, rng| {
            TiledAnalogLayer::new(out_dim, in_dim, spec, tile, tiling, rng)
        })?;
        let mut order: Vec<usize> = (0..data.len()).collect();
        rng.shuffle(&mut order);
        let input_len = cfg.net.input.len();
        let mut pipeline = AnalogPipeline {
            net,
            lr: cfg.lr,
            rng,
            order,
            cursor: 0,
            staging: [vec![0.0; input_len], vec![0.0; input_len]],
            staged_label: [0; 2],
            cur: 0,
            steps: 0,
            epochs: 0,
            clock_ns: 0,
        };
        pipeline.stage(data, 0);
        Ok(pipeline)
    }

    /// Copies sample `order[cursor]` into staging buffer `slot`.
    fn stage(&mut self, data: &Dataset, slot: usize) {
        let idx = self.order[self.cursor];
        self.staging[slot].copy_from_slice(data.input(idx));
        self.staged_label[slot] = data.label(idx);
    }

    /// The trained network (e.g. for evaluation).
    pub fn net_mut(&mut self) -> &mut ConvNet<TiledAnalogLayer> {
        &mut self.net
    }

    /// Training steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Completed epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Virtual time elapsed, in modeled nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Steady-state throughput: samples per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.clock_ns == 0 {
            return 0.0;
        }
        self.steps as f64 * 1e9 / self.clock_ns as f64
    }

    /// Pulse/cycle counters summed over every tile of every layer.
    pub fn stats(&self) -> TileStats {
        let mut total = TileStats::default();
        for layer in self.net.backends() {
            let s = layer.stats();
            total.forward_ops += s.forward_ops;
            total.backward_ops += s.backward_ops;
            total.update_ops += s.update_ops;
            total.pulses += s.pulses;
        }
        total
    }

    /// One streaming training step: trains on the staged sample while
    /// (in model time) the next sample is prefetched into the inactive
    /// buffer. Returns the sample loss. Allocation-free in steady state.
    pub fn step(&mut self, data: &Dataset) -> f32 {
        let before = self.stats();
        // Advance the cursor and prefetch the *next* sample into the
        // inactive buffer (overlapped with this step's update phase on
        // the virtual clock).
        self.cursor += 1;
        if self.cursor == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.cursor = 0;
            self.epochs += 1;
        }
        let next = 1 - self.cur;
        self.stage(data, next);
        let prefetch_bytes = 4 * self.staging[next].len() as u64;
        // Train on the sample staged during the previous step.
        let AnalogPipeline { net, staging, staged_label, cur, lr, .. } = self;
        let loss = net.train_step(&staging[*cur], staged_label[*cur], *lr);
        self.cur = next;
        // Advance the virtual clock from the tiles' own cycle counts:
        // reads serialize with the step, updates overlap the prefetch.
        let after = self.stats();
        let reads =
            (after.forward_ops - before.forward_ops) + (after.backward_ops - before.backward_ops);
        let updates = after.update_ops - before.update_ops;
        let t_fb = reads * T_READ_NS;
        let t_update = updates * T_UPDATE_NS;
        let t_prefetch = prefetch_bytes * PREFETCH_NS_PER_BYTE;
        self.clock_ns += t_fb + t_update.max(t_prefetch);
        enw_trace::record_span_io("crossbar/train/fb", reads, 0, 0);
        enw_trace::record_span_io("crossbar/train/update", updates, 0, 0);
        enw_trace::record_span_io("crossbar/train/prefetch", 1, prefetch_bytes, prefetch_bytes);
        self.steps += 1;
        loss
    }

    /// Runs `n` steps; returns the mean loss.
    pub fn run(&mut self, data: &Dataset, n: usize) -> f64 {
        let mut total = 0.0f64;
        for _ in 0..n {
            total += self.step(data) as f64;
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Classification accuracy of the current network over a dataset.
    pub fn evaluate(&mut self, data: &Dataset) -> f64 {
        self.net.evaluate(data)
    }

    /// Serializes every piece of mutable state into a checkpoint.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.tag(b"EPIP");
        w.u64(self.steps);
        w.u64(self.epochs);
        w.u64(self.clock_ns);
        w.u64(self.cursor as u64);
        w.u64(self.cur as u64);
        let rs = self.rng.state();
        for word in rs.words {
            w.u64(word);
        }
        w.flag(rs.gauss_spare_bits.is_some());
        w.u64(rs.gauss_spare_bits.unwrap_or(0));
        w.u64(self.order.len() as u64);
        for &idx in &self.order {
            w.u64(idx as u64);
        }
        for slot in 0..2 {
            w.f32_slice(&self.staging[slot]);
            w.u64(self.staged_label[slot] as u64);
        }
        for layer in self.net.backends() {
            layer.save_state(&mut w);
        }
        w.into_bytes()
    }

    /// Restores a checkpoint taken from a pipeline built with the same
    /// [`PipelineConfig`] and dataset; the restored pipeline then
    /// continues bit-identically to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the stream is truncated,
    /// mistagged, shaped for a different configuration, or has
    /// trailing bytes.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = StateReader::new(bytes);
        r.expect_tag(b"EPIP")?;
        self.steps = r.u64()?;
        self.epochs = r.u64()?;
        self.clock_ns = r.u64()?;
        self.cursor = r.u64()? as usize;
        self.cur = r.u64()? as usize;
        let words = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let has_spare = r.flag()?;
        let spare = r.u64()?;
        self.rng = Rng64::restore(RngState { words, gauss_spare_bits: has_spare.then_some(spare) });
        check_dim("pipeline epoch order length", r.u64()?, self.order.len() as u64)?;
        for idx in self.order.iter_mut() {
            *idx = r.u64()? as usize;
        }
        for slot in 0..2 {
            r.f32_slice(&mut self.staging[slot])?;
            self.staged_label[slot] = r.u64()? as usize;
        }
        for layer in self.net.backends_mut() {
            layer.restore_state(&mut r)?;
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;
    use enw_nn::conv::MapShape;
    use enw_nn::data::SyntheticImages;

    fn small_cfg(seed: u64) -> PipelineConfig {
        PipelineConfig {
            net: ConvNetConfig {
                input: MapShape { channels: 1, height: 8, width: 8 },
                conv_channels: vec![3, 4],
                embed_dim: 12,
                classes: 3,
            },
            spec: devices::rram(),
            tile: TileConfig { drop_connect: 0.1, ..TileConfig::ideal() },
            tiling: TilingConfig { tile_rows: 8, tile_cols: 10 },
            lr: 0.02,
            seed,
        }
    }

    fn small_data(seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        SyntheticImages::builder()
            .classes(3)
            .dim(64)
            .train_per_class(6)
            .test_per_class(2)
            .build(&mut rng)
            .train
    }

    #[test]
    fn builds_a_deep_tiled_stack_and_steps() {
        let data = small_data(11);
        let mut p = AnalogPipeline::new(&small_cfg(1), &data).unwrap();
        assert_eq!(p.net_mut().layer_count(), 4);
        let loss = p.step(&data);
        assert!(loss.is_finite() && loss > 0.0);
        assert_eq!(p.steps(), 1);
        assert!(p.clock_ns() > 0, "virtual clock must advance");
        assert!(p.stats().pulses > 0 || p.stats().update_ops > 0);
        assert!(p.throughput() > 0.0);
    }

    #[test]
    fn rejects_empty_dataset_and_shape_mismatch() {
        let data = small_data(12);
        let mut cfg = small_cfg(1);
        cfg.net.input = MapShape { channels: 1, height: 10, width: 10 };
        assert!(AnalogPipeline::new(&cfg, &data).is_err());
    }

    #[test]
    fn reruns_are_deterministic_and_thread_count_invariant() {
        let data = small_data(13);
        let run = |threads: usize| {
            enw_parallel::with_threads(threads, || {
                let mut p = AnalogPipeline::new(&small_cfg(5), &data).unwrap();
                p.run(&data, 12);
                p.checkpoint()
            })
        };
        let base = run(1);
        assert_eq!(base, run(1), "rerun must be byte-identical");
        assert_eq!(base, run(2), "2-thread run must be byte-identical");
        assert_eq!(base, run(8), "8-thread run must be byte-identical");
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_to_uninterrupted_run() {
        let data = small_data(14);
        let mut a = AnalogPipeline::new(&small_cfg(7), &data).unwrap();
        a.run(&data, 9);
        let mid = a.checkpoint();
        a.run(&data, 9);
        let finish = a.checkpoint();

        let mut b = AnalogPipeline::new(&small_cfg(7), &data).unwrap();
        b.restore(&mid).unwrap();
        assert_eq!(b.steps(), 9);
        b.run(&data, 9);
        assert_eq!(b.checkpoint(), finish, "resumed run diverged from the uninterrupted one");
    }

    #[test]
    fn restore_rejects_a_foreign_checkpoint() {
        let data = small_data(15);
        let a = AnalogPipeline::new(&small_cfg(1), &data).unwrap();
        let bytes = a.checkpoint();
        let mut cfg = small_cfg(1);
        cfg.tiling = TilingConfig { tile_rows: 4, tile_cols: 4 };
        let mut b = AnalogPipeline::new(&cfg, &data).unwrap();
        assert!(b.restore(&bytes).is_err());
    }

    #[test]
    fn epoch_boundary_reshuffles_without_repeating_state() {
        let data = small_data(16);
        let mut p = AnalogPipeline::new(&small_cfg(3), &data).unwrap();
        let n = data.len();
        p.run(&data, n + 2);
        assert_eq!(p.epochs(), 1, "one epoch boundary after {} steps", n + 2);
        let mut seen: Vec<usize> = p.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>(), "order must stay a permutation");
    }
}
