//! The coupled-dynamics training algorithm for asymmetric device arrays
//! (paper Sec. II-B5, ref. \[35\] — colloquially "Tiki-Taka").
//!
//! Device asymmetry injects an unintentional cost term into plain SGD,
//! pulling weights toward each device's symmetry point instead of the loss
//! minimum. The fix couples two arrays:
//!
//! * **A** — a zero-shifted auxiliary array that receives every stochastic
//!   gradient update. Because it is zero-shifted, its asymmetric dynamics
//!   make it a *leaky integrator of the gradient* around logical zero.
//! * **C** — the main weight array. Periodically one column of A is read
//!   and transferred into C as a small proportional update.
//!
//! The effective weight is `W = C + γ·A`. All crossbar operations remain
//! fully parallel, so the scheme keeps the O(1) cost of the plain RPU
//! update — the paper's point that the "implementation cost of this new
//! algorithm is minimal".

use crate::device::DeviceSpec;
use crate::tile::{AnalogTile, TileConfig, TileStats};
use enw_nn::backend::LinearBackend;
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;

/// Hyper-parameters of the coupled-array scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TikiTakaConfig {
    /// Contribution of the auxiliary array to the effective weight.
    pub gamma: f32,
    /// Updates between successive column transfers.
    pub transfer_every: u32,
    /// Learning rate of the A→C transfer.
    pub transfer_lr: f32,
    /// Pulse pairs used for the zero-shift calibration of A.
    pub calibration_pairs: u32,
}

impl Default for TikiTakaConfig {
    fn default() -> Self {
        TikiTakaConfig { gamma: 0.5, transfer_every: 1, transfer_lr: 0.1, calibration_pairs: 1000 }
    }
}

/// A coupled pair of analog tiles implementing [`LinearBackend`].
///
/// # Example
///
/// ```
/// use enw_crossbar::devices;
/// use enw_crossbar::tiki_taka::{TikiTakaConfig, TikiTakaTile};
/// use enw_crossbar::tile::TileConfig;
/// use enw_nn::backend::LinearBackend;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let mut tile = TikiTakaTile::new(
///     4, 3, &devices::rram(), TileConfig::ideal(), TikiTakaConfig::default(), &mut rng);
/// let y = tile.forward(&[0.1, 0.2, 0.3]);
/// assert_eq!(y.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct TikiTakaTile {
    a: AnalogTile,
    c: AnalogTile,
    cfg: TikiTakaConfig,
    update_counter: u64,
    next_col: usize,
}

impl TikiTakaTile {
    /// Builds the coupled pair over `spec` devices; A is zero-shift
    /// calibrated immediately.
    pub fn new(
        out_dim: usize,
        in_dim: usize,
        spec: &DeviceSpec,
        tile_cfg: TileConfig,
        cfg: TikiTakaConfig,
        rng: &mut Rng64,
    ) -> Self {
        let mut a = AnalogTile::new(out_dim, in_dim, spec, tile_cfg, rng);
        a.calibrate_zero_shift(cfg.calibration_pairs);
        let c = AnalogTile::new(out_dim, in_dim, spec, tile_cfg, rng);
        TikiTakaTile { a, c, cfg, update_counter: 0, next_col: 0 }
    }

    /// Write-verify programs the *main* array's effective weights.
    pub fn program_effective(&mut self, target: &Matrix) {
        self.c.program_effective(target);
    }

    /// The main (C) tile.
    pub fn main_tile(&self) -> &AnalogTile {
        &self.c
    }

    /// The auxiliary (A) tile.
    pub fn aux_tile(&self) -> &AnalogTile {
        &self.a
    }

    /// Combined event counters of both tiles.
    pub fn stats(&self) -> TileStats {
        let a = self.a.stats();
        let c = self.c.stats();
        TileStats {
            forward_ops: a.forward_ops + c.forward_ops,
            backward_ops: a.backward_ops + c.backward_ops,
            update_ops: a.update_ops + c.update_ops,
            pulses: a.pulses + c.pulses,
        }
    }

    fn transfer_one_column(&mut self) {
        let cols = self.c.array().cols();
        enw_trace::record_span("crossbar/transfer", self.c.array().rows() as u64);
        let j = self.next_col;
        self.next_col = (self.next_col + 1) % cols;
        // Read the effective A column (a digital read in hardware).
        let a_col: Vec<f32> = {
            let w = self.a.weights();
            (0..w.rows()).map(|r| w.at(r, j)).collect()
        };
        // Transfer C[:,j] += transfer_lr * A[:,j]: express as the rank-1
        // update −lr·d·xᵀ with d = −A[:,j] and x = e_j.
        let d: Vec<f32> = a_col.iter().map(|v| -v).collect();
        let in_dim = self.c.in_dim();
        if j < in_dim {
            let mut x = vec![0.0f32; in_dim];
            x[j] = 1.0;
            self.c.update(&d, &x, self.cfg.transfer_lr);
        } else {
            // Bias column: the augmented constant input addresses it.
            let x = vec![0.0f32; in_dim];
            self.c.update(&d, &x, self.cfg.transfer_lr);
        }
    }
}

impl LinearBackend for TikiTakaTile {
    fn in_dim(&self) -> usize {
        self.c.in_dim()
    }

    fn out_dim(&self) -> usize {
        self.c.out_dim()
    }

    fn forward_into(&mut self, x: &[f32], out: &mut [f32]) {
        self.c.forward_into(x, out);
        let mut ya = enw_parallel::scratch::take_f32(out.len());
        self.a.forward_into(x, &mut ya);
        // `y = yc + γ·ya`, same term order as the allocating zip/map this
        // replaces, so the bits match.
        for (o, a) in out.iter_mut().zip(ya.iter()) {
            *o += self.cfg.gamma * a;
        }
    }

    fn backward_into(&mut self, delta: &[f32], out: &mut [f32]) {
        self.c.backward_into(delta, out);
        let mut da = enw_parallel::scratch::take_f32(out.len());
        self.a.backward_into(delta, &mut da);
        for (o, a) in out.iter_mut().zip(da.iter()) {
            *o += self.cfg.gamma * a;
        }
    }

    fn update(&mut self, delta: &[f32], x: &[f32], lr: f32) {
        self.a.update(delta, x, lr);
        self.update_counter += 1;
        if self.update_counter.is_multiple_of(self.cfg.transfer_every as u64) {
            self.transfer_one_column();
        }
    }

    fn weights(&self) -> Matrix {
        let mut w = self.c.weights();
        let a = self.a.weights();
        w.axpy(self.cfg.gamma, &a);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    fn tt(seed: u64) -> TikiTakaTile {
        let mut rng = Rng64::new(seed);
        TikiTakaTile::new(
            2,
            2,
            &devices::rram(),
            TileConfig::ideal(),
            TikiTakaConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn aux_array_is_zero_shifted() {
        let t = tt(1);
        assert!(t.aux_tile().is_zero_shifted());
        assert!(!t.main_tile().is_zero_shifted());
    }

    #[test]
    fn forward_combines_both_arrays() {
        let mut t = tt(2);
        t.program_effective(&Matrix::from_rows(&[&[0.4, 0.0, 0.0], &[0.0, 0.4, 0.0]]));
        let y = t.forward(&[1.0, 1.0]);
        // A starts (near) zero, so output ≈ C's contribution.
        assert!((y[0] - 0.4).abs() < 0.1, "{y:?}");
    }

    #[test]
    fn updates_flow_into_aux_first() {
        let mut t = TikiTakaTile::new(
            2,
            2,
            &devices::rram(),
            TileConfig::ideal(),
            TikiTakaConfig { transfer_every: 1000, ..TikiTakaConfig::default() },
            &mut Rng64::new(3),
        );
        let before_c = t.main_tile().array().read_matrix();
        for _ in 0..20 {
            t.update(&[1.0, -1.0], &[1.0, 0.5], 0.05);
        }
        // No transfer yet: C's physical array untouched by updates.
        assert_eq!(t.main_tile().array().read_matrix(), before_c);
        // A moved.
        let a_w = t.aux_tile().weights();
        assert!(a_w.max_abs() > 0.001);
    }

    #[test]
    fn transfers_eventually_move_main_array() {
        let mut t = tt(4);
        for _ in 0..60 {
            t.update(&[1.0, -1.0], &[1.0, 0.5], 0.05);
        }
        let c_w = t.main_tile().weights();
        assert!(c_w.max_abs() > 0.001, "transfers never reached C");
    }

    #[test]
    fn learns_linear_regression_despite_asymmetric_devices() {
        // The headline claim of [35]: training on aggressively asymmetric
        // (RRAM-like) devices still converges.
        let mut rng = Rng64::new(5);
        let mut t = TikiTakaTile::new(
            1,
            2,
            &devices::rram(),
            TileConfig::ideal(),
            TikiTakaConfig::default(),
            &mut Rng64::new(6),
        );
        let target = |x: &[f32]| 0.4 * x[0] - 0.3 * x[1];
        for _ in 0..3000 {
            let x = [rng.range(-1.0, 1.0) as f32, rng.range(-1.0, 1.0) as f32];
            let y = t.forward(&x)[0];
            let err = y - target(&x);
            t.update(&[err], &x, 0.02);
        }
        let mut err_sum = 0.0f64;
        for _ in 0..100 {
            let x = [rng.range(-1.0, 1.0) as f32, rng.range(-1.0, 1.0) as f32];
            err_sum += (t.forward(&x)[0] - target(&x)).abs() as f64;
        }
        let mae = err_sum / 100.0;
        assert!(mae < 0.12, "mean absolute error {mae}");
    }
}
