//! Weight tiling across a grid of analog tiles — training at depth
//! (paper Sec. II; Rasch 2019's simulated large-scale crossbar training).
//!
//! A single physical crossbar tops out around a few hundred word/bit
//! lines, so a large layer must shard its weight matrix across a grid of
//! [`AnalogTile`]s: row blocks partition the output dimension, column
//! blocks partition the input dimension. [`TiledAnalogLayer`] owns that
//! grid and exposes it as one logical [`LinearBackend`]:
//!
//! * **Forward** — each tile computes its partial product over its
//!   column slice of the input; per row block the partial sums are
//!   reduced in ascending column-block order (block 0 writes, later
//!   blocks accumulate), a fixed association that makes the layer
//!   bit-deterministic at any thread count.
//! * **Backward** — the transposed reads reduce per column block in
//!   ascending row-block order, same discipline.
//! * **Update** — every tile applies the stochastic pulse update to its
//!   own shard; tiles own independent RNG streams (forked in fixed grid
//!   order at construction), so no tile's draws depend on another's.
//!
//! **Bias ownership.** Every [`AnalogTile`] physically carries a bias
//! column, but only the tiles in the **last** column block drive it
//! (at 1.0); all other tiles drive their bias line at 0.0, giving it
//! zero forward contribution and zero pulse probability. The logical
//! layer therefore has exactly one bias term per output row, and a
//! 1×1 grid is bit-identical to a monolithic [`AnalogTile`].
//!
//! The grid is walked in line, one tile after another (a tile's own
//! [`AnalogArray`](crate::array::AnalogArray) read still fans out when
//! the tile is large enough), and the per-tile partial-sum buffers are
//! persistent, so forward/backward/update are allocation-free in steady
//! state.
//!
//! Checkpointing captures every bit of mutable state — conductances,
//! per-tile RNG streams, pulse counters — via [`enw_nn::snapshot`], so a
//! restored layer continues bit-identically to an uninterrupted run.

use crate::device::DeviceSpec;
use crate::error::CrossbarError;
use crate::tile::{AnalogTile, TileConfig, TileStats};
use enw_nn::backend::LinearBackend;
use enw_nn::snapshot::{check_dim, SnapshotError, StateReader, StateWriter};
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::{Rng64, RngState};

/// How a logical weight matrix is sharded into physical tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingConfig {
    /// Maximum output rows per tile (word lines).
    pub tile_rows: usize,
    /// Maximum input columns per tile (bit lines, excluding the bias).
    pub tile_cols: usize,
}

impl Default for TilingConfig {
    /// 256×256 — the array size the paper's Sec. II device-count
    /// estimates assume.
    fn default() -> Self {
        TilingConfig { tile_rows: 256, tile_cols: 256 }
    }
}

/// One grid cell: a physical tile plus its placement and persistent
/// partial-sum buffers.
#[derive(Debug, Clone)]
struct TileCell {
    tile: AnalogTile,
    /// First logical output row this tile covers.
    row0: usize,
    /// First logical input column this tile covers.
    col0: usize,
    /// True for tiles in the last column block, which own the logical
    /// bias line (driven at 1.0; all other tiles drive 0.0).
    owns_bias: bool,
    /// Forward partial sums, `tile.out_dim()` long.
    fwd: Vec<f32>,
    /// Backward partial sums, `tile.in_dim()` long.
    bwd: Vec<f32>,
}

/// A large logical layer sharded across a grid of [`AnalogTile`]s (see
/// the [module docs](self) for the reduction and bias disciplines).
///
/// # Example
///
/// ```
/// use enw_crossbar::devices;
/// use enw_crossbar::tile::TileConfig;
/// use enw_crossbar::tiled::{TiledAnalogLayer, TilingConfig};
/// use enw_nn::backend::LinearBackend;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let mut layer = TiledAnalogLayer::new(
///     20, 12,
///     &devices::ideal(1000),
///     TileConfig::ideal(),
///     TilingConfig { tile_rows: 8, tile_cols: 8 },
///     &mut rng,
/// ).unwrap();
/// assert_eq!(layer.grid(), (3, 2));
/// let y = layer.forward(&[0.1; 12]);
/// assert_eq!(y.len(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct TiledAnalogLayer {
    out_dim: usize,
    in_dim: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// Grid cells in row-major order (row block outer, column block
    /// inner) — also the partial-sum reduction order.
    cells: Vec<TileCell>,
}

impl TiledAnalogLayer {
    /// Builds the grid over freshly materialized devices and
    /// write-verify programs it to a Xavier initialization (the same
    /// scheme [`crate::train::analog_mlp`] uses — fresh devices sit at
    /// zero weight, which would leave every ReLU dead and the network
    /// untrainable). Tiles are constructed (and their RNG streams
    /// forked from `rng`) in row-major grid order and the init matrix
    /// is drawn from `rng` afterwards, so the layer is a deterministic
    /// function of its configuration and seed; a 1×1 grid constructs
    /// exactly the tile a monolithic [`AnalogTile::new`] +
    /// [`AnalogTile::program_effective`] would.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] if either layer
    /// dimension or either tiling dimension is zero.
    pub fn new(
        out_dim: usize,
        in_dim: usize,
        spec: &DeviceSpec,
        cfg: TileConfig,
        tiling: TilingConfig,
        rng: &mut Rng64,
    ) -> Result<Self, CrossbarError> {
        if out_dim == 0 || in_dim == 0 {
            return Err(CrossbarError::InvalidConfig {
                reason: "tiled layer dimensions must be non-zero",
            });
        }
        if tiling.tile_rows == 0 || tiling.tile_cols == 0 {
            return Err(CrossbarError::InvalidConfig {
                reason: "tile grid dimensions must be non-zero",
            });
        }
        let grid_rows = out_dim.div_ceil(tiling.tile_rows);
        let grid_cols = in_dim.div_ceil(tiling.tile_cols);
        let mut cells = Vec::with_capacity(grid_rows * grid_cols);
        for rb in 0..grid_rows {
            let row0 = rb * tiling.tile_rows;
            let rows = tiling.tile_rows.min(out_dim - row0);
            for cb in 0..grid_cols {
                let col0 = cb * tiling.tile_cols;
                let cols = tiling.tile_cols.min(in_dim - col0);
                cells.push(TileCell {
                    tile: AnalogTile::new(rows, cols, spec, cfg, rng),
                    row0,
                    col0,
                    owns_bias: cb == grid_cols - 1,
                    fwd: vec![0.0; rows],
                    bwd: vec![0.0; cols],
                });
            }
        }
        // Xavier init over the *logical* layer, drawn once after the
        // grid is built so the weight image is a function of the layer
        // shape and seed (the bias column starts at zero, as in
        // `crate::train`). Each tile write-verify programs its shard.
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let mut init = Matrix::random_uniform(out_dim, in_dim + 1, -limit, limit, rng);
        for r in 0..out_dim {
            init.set(r, in_dim, 0.0);
        }
        for cell in &mut cells {
            let rows = cell.fwd.len();
            let tin = cell.bwd.len();
            let mut target = Matrix::zeros(rows, tin + 1);
            for r in 0..rows {
                for c in 0..tin {
                    target.set(r, c, init.at(cell.row0 + r, cell.col0 + c));
                }
                if cell.owns_bias {
                    target.set(r, tin, init.at(cell.row0 + r, in_dim));
                }
            }
            cell.tile.program_effective(&target);
        }
        Ok(TiledAnalogLayer { out_dim, in_dim, grid_rows, grid_cols, cells })
    }

    /// Grid shape `(row blocks, column blocks)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.grid_rows, self.grid_cols)
    }

    /// Number of physical tiles.
    pub fn tile_count(&self) -> usize {
        self.cells.len()
    }

    /// Event counters summed over every tile.
    pub fn stats(&self) -> TileStats {
        let mut total = TileStats::default();
        for cell in &self.cells {
            let s = cell.tile.stats();
            total.forward_ops += s.forward_ops;
            total.backward_ops += s.backward_ops;
            total.update_ops += s.update_ops;
            total.pulses += s.pulses;
        }
        total
    }

    /// Serializes every bit of mutable state — per-tile conductances,
    /// RNG streams, pulse counters, event stats — in grid order.
    /// Restoring into an identically constructed layer
    /// ([`restore_state`](TiledAnalogLayer::restore_state)) resumes
    /// bit-identically.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.tag(b"TLYR");
        w.u64(self.out_dim as u64);
        w.u64(self.in_dim as u64);
        w.u64(self.grid_rows as u64);
        w.u64(self.grid_cols as u64);
        for cell in &self.cells {
            w.tag(b"TILE");
            let rs = cell.tile.rng_state();
            for word in rs.words {
                w.u64(word);
            }
            w.flag(rs.gauss_spare_bits.is_some());
            w.u64(rs.gauss_spare_bits.unwrap_or(0));
            w.u64(cell.tile.array().pulse_count());
            let s = cell.tile.stats();
            w.u64(s.forward_ops);
            w.u64(s.backward_ops);
            w.u64(s.update_ops);
            w.u64(s.pulses);
            w.f32_slice(cell.tile.array().weights_raw());
        }
    }

    /// Restores state captured by
    /// [`save_state`](TiledAnalogLayer::save_state). The layer must have
    /// been constructed with the same configuration and seed as the one
    /// that saved (device parameters are rebuilt from the seed, not
    /// serialized); shape mismatches are detected and rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the stream is truncated,
    /// mistagged, or shaped for a different grid.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        r.expect_tag(b"TLYR")?;
        check_dim("tiled layer out_dim", r.u64()?, self.out_dim as u64)?;
        check_dim("tiled layer in_dim", r.u64()?, self.in_dim as u64)?;
        check_dim("tiled layer grid rows", r.u64()?, self.grid_rows as u64)?;
        check_dim("tiled layer grid cols", r.u64()?, self.grid_cols as u64)?;
        for cell in &mut self.cells {
            r.expect_tag(b"TILE")?;
            let words = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            let has_spare = r.flag()?;
            let spare = r.u64()?;
            cell.tile.restore_rng(RngState {
                words,
                gauss_spare_bits: has_spare.then_some(spare),
            });
            let pulse_count = r.u64()?;
            let stats = TileStats {
                forward_ops: r.u64()?,
                backward_ops: r.u64()?,
                update_ops: r.u64()?,
                pulses: r.u64()?,
            };
            cell.tile.restore_stats(stats);
            let arr = cell.tile.array_mut();
            let mut weights = vec![0.0f32; arr.weights_raw().len()];
            r.f32_slice(&mut weights)?;
            arr.restore_weights(&weights);
            arr.restore_pulse_count(pulse_count);
        }
        Ok(())
    }
}

impl LinearBackend for TiledAnalogLayer {
    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn forward_into(&mut self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        assert_eq!(out.len(), self.out_dim, "output dimension mismatch");
        for cell in &mut self.cells {
            let xs = &x[cell.col0..cell.col0 + cell.tile.in_dim()];
            let bias = if cell.owns_bias { 1.0 } else { 0.0 };
            cell.tile.forward_biased_into(xs, bias, &mut cell.fwd);
        }
        // Reduce per row block in ascending column-block order: the
        // first column block writes, later blocks accumulate. Fixed
        // association — bit-identical at any thread count, and a 1×1
        // grid degenerates to a plain copy of the monolithic read.
        for cell in &self.cells {
            let dst = &mut out[cell.row0..cell.row0 + cell.fwd.len()];
            if cell.col0 == 0 {
                dst.copy_from_slice(&cell.fwd);
            } else {
                for (o, v) in dst.iter_mut().zip(&cell.fwd) {
                    *o += *v;
                }
            }
        }
        let partials = self.cells.iter().map(|c| c.fwd.len() as u64).sum::<u64>();
        enw_trace::record_span_io("crossbar/tiled/reduce", partials, 4 * partials, 4 * out.len() as u64);
    }

    fn backward_into(&mut self, delta: &[f32], out: &mut [f32]) {
        assert_eq!(delta.len(), self.out_dim, "gradient dimension mismatch");
        assert_eq!(out.len(), self.in_dim, "gradient output dimension mismatch");
        for cell in &mut self.cells {
            let ds = &delta[cell.row0..cell.row0 + cell.tile.out_dim()];
            cell.tile.backward_into(ds, &mut cell.bwd);
        }
        // Reduce per column block in ascending row-block order (row
        // block 0 writes, later blocks accumulate) — the transposed
        // discipline of the forward reduction.
        for cell in &self.cells {
            let dst = &mut out[cell.col0..cell.col0 + cell.bwd.len()];
            if cell.row0 == 0 {
                dst.copy_from_slice(&cell.bwd);
            } else {
                for (o, v) in dst.iter_mut().zip(&cell.bwd) {
                    *o += *v;
                }
            }
        }
        let partials = self.cells.iter().map(|c| c.bwd.len() as u64).sum::<u64>();
        enw_trace::record_span_io("crossbar/tiled/reduce", partials, 4 * partials, 4 * out.len() as u64);
    }

    fn update(&mut self, delta: &[f32], x: &[f32], lr: f32) {
        assert_eq!(delta.len(), self.out_dim, "gradient dimension mismatch");
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        for cell in &mut self.cells {
            let ds = &delta[cell.row0..cell.row0 + cell.tile.out_dim()];
            let xs = &x[cell.col0..cell.col0 + cell.tile.in_dim()];
            let bias = if cell.owns_bias { 1.0 } else { 0.0 };
            cell.tile.update_biased(ds, xs, bias, lr);
        }
    }

    fn weights(&self) -> Matrix {
        let mut m = Matrix::zeros(self.out_dim, self.in_dim + 1);
        for cell in &self.cells {
            let w = cell.tile.weights();
            let tin = cell.tile.in_dim();
            for r in 0..w.rows() {
                for c in 0..tin {
                    m.set(cell.row0 + r, cell.col0 + c, w.at(r, c));
                }
                if cell.owns_bias {
                    m.set(cell.row0 + r, self.in_dim, w.at(r, tin));
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    fn noisy_cfg() -> TileConfig {
        TileConfig { drop_connect: 0.25, ..TileConfig::ideal() }
    }

    fn weight_bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mut rng = Rng64::new(1);
        let spec = devices::ideal(1000);
        let bad_dim =
            TiledAnalogLayer::new(0, 4, &spec, TileConfig::ideal(), TilingConfig::default(), &mut rng);
        assert!(matches!(bad_dim, Err(CrossbarError::InvalidConfig { .. })));
        let bad_tile = TiledAnalogLayer::new(
            4,
            4,
            &spec,
            TileConfig::ideal(),
            TilingConfig { tile_rows: 0, tile_cols: 8 },
            &mut rng,
        );
        assert!(matches!(bad_tile, Err(CrossbarError::InvalidConfig { .. })));
    }

    #[test]
    fn grid_covers_dimensions_with_remainders() {
        let mut rng = Rng64::new(2);
        let layer = TiledAnalogLayer::new(
            20,
            13,
            &devices::ideal(1000),
            TileConfig::ideal(),
            TilingConfig { tile_rows: 8, tile_cols: 5 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(layer.grid(), (3, 3));
        assert_eq!(layer.tile_count(), 9);
        let covered_rows: usize =
            layer.cells.iter().filter(|c| c.col0 == 0).map(|c| c.fwd.len()).sum();
        let covered_cols: usize =
            layer.cells.iter().filter(|c| c.row0 == 0).map(|c| c.bwd.len()).sum();
        assert_eq!(covered_rows, 20);
        assert_eq!(covered_cols, 13);
    }

    #[test]
    fn one_by_one_grid_is_bitwise_identical_to_monolithic_tile() {
        let spec = devices::rram();
        let cfg = noisy_cfg();
        let mut mono = {
            let mut rng = Rng64::new(33);
            let mut tile = AnalogTile::new(10, 6, &spec, cfg, &mut rng);
            // Mirror the tiled constructor's init sequence: Xavier drawn
            // from the layer RNG after construction, bias column zero.
            let limit = (6.0 / 16.0f64).sqrt();
            let mut init = Matrix::random_uniform(10, 7, -limit, limit, &mut rng);
            for r in 0..10 {
                init.set(r, 6, 0.0);
            }
            tile.program_effective(&init);
            tile
        };
        let mut tiled = {
            let mut rng = Rng64::new(33);
            TiledAnalogLayer::new(
                10,
                6,
                &spec,
                cfg,
                TilingConfig { tile_rows: 10, tile_cols: 6 },
                &mut rng,
            )
            .unwrap()
        };
        let x: Vec<f32> = (0..6).map(|i| (i as f32 - 2.5) / 4.0).collect();
        let d: Vec<f32> = (0..10).map(|i| ((i % 3) as f32 - 1.0) / 5.0).collect();
        for _ in 0..3 {
            let ym = mono.forward(&x);
            let yt = tiled.forward(&x);
            assert_eq!(
                ym.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                yt.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let bm = mono.backward(&d);
            let bt = tiled.backward(&d);
            assert_eq!(
                bm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                bt.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            mono.update(&d, &x, 0.02);
            tiled.update(&d, &x, 0.02);
        }
        assert_eq!(weight_bits(&mono.weights()), weight_bits(&tiled.weights()));
        assert_eq!(mono.stats().pulses, tiled.stats().pulses);
        assert!(mono.stats().pulses > 0);
    }

    #[test]
    fn tiled_cycles_are_thread_count_invariant() {
        let run = |threads: usize| {
            enw_parallel::with_threads(threads, || {
                let mut rng = Rng64::new(55);
                let mut layer = TiledAnalogLayer::new(
                    40,
                    30,
                    &devices::rram(),
                    noisy_cfg(),
                    TilingConfig { tile_rows: 16, tile_cols: 12 },
                    &mut rng,
                )
                .unwrap();
                let x: Vec<f32> = (0..30).map(|i| ((i % 7) as f32 - 3.0) / 8.0).collect();
                let d: Vec<f32> = (0..40).map(|i| ((i % 5) as f32 - 2.0) / 8.0).collect();
                let mut fwd = Vec::new();
                let mut bwd = Vec::new();
                for _ in 0..4 {
                    fwd = layer.forward(&x);
                    bwd = layer.backward(&d);
                    layer.update(&d, &x, 0.02);
                }
                (weight_bits(&layer.weights()), fwd, bwd, layer.stats().pulses)
            })
        };
        let (w1, f1, b1, p1) = run(1);
        assert!(p1 > 0);
        for threads in [2usize, 8] {
            let (w, f, b, p) = run(threads);
            assert_eq!(w, w1, "weights diverged at {threads} threads");
            assert_eq!(p, p1, "pulse count diverged at {threads} threads");
            assert!(f.iter().zip(&f1).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(b.iter().zip(&b1).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn only_last_column_block_drives_the_bias() {
        let mut rng = Rng64::new(7);
        let mut layer = TiledAnalogLayer::new(
            6,
            8,
            &devices::ideal(2000),
            TileConfig::ideal(),
            TilingConfig { tile_rows: 6, tile_cols: 4 },
            &mut rng,
        )
        .unwrap();
        // With x = 0 only bias columns can fire pulses, and only in the
        // bias-owning (last) column block.
        let x = vec![0.0f32; 8];
        let d = vec![1.0f32; 6];
        for _ in 0..40 {
            layer.update(&d, &x, 0.05);
        }
        let non_owner_pulses: u64 =
            layer.cells.iter().filter(|c| !c.owns_bias).map(|c| c.tile.stats().pulses).sum();
        let owner_pulses: u64 =
            layer.cells.iter().filter(|c| c.owns_bias).map(|c| c.tile.stats().pulses).sum();
        assert_eq!(non_owner_pulses, 0, "non-owning tiles must keep their bias silent");
        assert!(owner_pulses > 0, "the owning block must train its bias");
        // The trained bias shows up in the forward read of a zero input.
        let y = layer.forward(&x);
        assert!(y.iter().any(|v| v.abs() > 1e-4), "{y:?}");
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let build = || {
            let mut rng = Rng64::new(99);
            TiledAnalogLayer::new(
                24,
                18,
                &devices::rram(),
                noisy_cfg(),
                TilingConfig { tile_rows: 10, tile_cols: 7 },
                &mut rng,
            )
            .unwrap()
        };
        let x: Vec<f32> = (0..18).map(|i| ((i % 4) as f32 - 1.5) / 4.0).collect();
        let d: Vec<f32> = (0..24).map(|i| ((i % 6) as f32 - 2.5) / 6.0).collect();
        // Uninterrupted run: 6 steps.
        let mut a = build();
        for _ in 0..3 {
            a.update(&d, &x, 0.03);
        }
        let mut w = StateWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        for _ in 0..3 {
            a.update(&d, &x, 0.03);
        }
        // Interrupted run: fresh layer, restore at step 3, same tail.
        let mut b = build();
        let mut r = StateReader::new(&bytes);
        b.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        for _ in 0..3 {
            b.update(&d, &x, 0.03);
        }
        assert_eq!(weight_bits(&a.weights()), weight_bits(&b.weights()));
        assert_eq!(a.stats(), b.stats());
        // And the post-resume forward reads match bitwise (RNG streams
        // must have been restored exactly).
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        assert!(ya.iter().zip(&yb).all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let mut rng = Rng64::new(3);
        let spec = devices::ideal(1000);
        let layer = TiledAnalogLayer::new(
            8,
            8,
            &spec,
            TileConfig::ideal(),
            TilingConfig { tile_rows: 4, tile_cols: 4 },
            &mut rng,
        )
        .unwrap();
        let mut w = StateWriter::new();
        layer.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other = TiledAnalogLayer::new(
            8,
            8,
            &spec,
            TileConfig::ideal(),
            TilingConfig { tile_rows: 8, tile_cols: 8 },
            &mut rng,
        )
        .unwrap();
        let mut r = StateReader::new(&bytes);
        let err = other.restore_state(&mut r).unwrap_err();
        assert!(matches!(err, SnapshotError::ShapeMismatch { .. }), "{err}");
    }
}
