//! The analog tile: a crossbar array plus its periphery, exposed through
//! the `enw-nn` [`LinearBackend`] trait so that whole networks train on
//! simulated hardware unmodified.
//!
//! A tile performs the three crossbar cycles of paper Fig. 1:
//!
//! * **Forward** — DAC-quantized inputs on the columns, currents summed per
//!   row, read noise added, ADC-quantized output.
//! * **Backward** — the transposed read, same periphery.
//! * **Update** — the parallel stochastic pulse scheme of \[14\]: rows and
//!   columns fire independent Bernoulli pulse trains of length `BL`;
//!   every coincidence steps the device at that crosspoint once. The
//!   expected step equals the SGD rank-1 update while touching each device
//!   `O(BL)` times independent of array size.
//!
//! # The update's draw contract
//!
//! Every pinned digest is a function of *which* generator outputs the
//! stochastic update consumes and in what order, so that schedule is
//! fixed here and nothing else about the update is:
//!
//! 1. A line's pulse probability is `p = min(amp · |drive|, 1)` in `f32`
//!    (`amp = √(lr / (BL · dw_avg))`); a line with `p > 0` is *active*.
//! 2. For each step `s` of the `BL`, the tile RNG yields one output per
//!    active row in ascending row order, then one per active column in
//!    ascending column order. Output `x` fires the line iff
//!    `uniform() < p`, that is iff `x >> 11 < ⌈p · 2⁵³⌉`.
//! 3. After the last step the tile RNG yields one output per row —
//!    *every* row, active or not — which is that row's stream seed:
//!    the row's stream is `Rng64::new(seed)`, as `Rng64::fork` builds it.
//! 4. Row `r` consumes its stream over its coincidences in ascending
//!    (step, column) order: one drop-connect draw (when `drop_connect >
//!    0`) before each pulse, then whatever the device's pulse draws.
//!
//! Rows share no stream, so the pulse phase may run rows in any order on
//! any number of threads; a row that never fired consumes nothing, so
//! its stream is never expanded from the seed.

use crate::array::AnalogArray;
use crate::device::{DeviceSpec, PulseDir};
use crate::error::CrossbarError;
use crate::noise::AnalogNoise;
use enw_nn::backend::LinearBackend;
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::{Rng64, RngState};

/// Fixed row-chunk size for the parallel stochastic update; boundaries
/// depend only on the array shape, never the worker count.
const PAR_UPDATE_ROW_CHUNK: usize = 16;

/// How the rank-1 update is realized on the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateScheme {
    /// Stochastic pulse trains of length `bl` (the hardware scheme).
    StochasticPulse {
        /// Pulse-train length (paper uses BL ≈ 10–100; 31 is typical).
        bl: u32,
    },
    /// Analytic expectation of the pulse scheme: one state-dependent step
    /// evaluation per crosspoint. Faster, preserves bounded/asymmetric
    /// dynamics, drops pulse-level stochasticity. For sweeps.
    MeanField,
}

/// Event counts for one tile (inputs to energy/latency models and the
/// O(1)-scaling experiment E1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Forward crossbar reads.
    pub forward_ops: u64,
    /// Backward (transposed) crossbar reads.
    pub backward_ops: u64,
    /// Rank-1 update operations.
    pub update_ops: u64,
    /// Device programming pulses actually fired.
    pub pulses: u64,
}

/// Tile configuration: periphery plus update realization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileConfig {
    /// Converter/noise model.
    pub noise: AnalogNoise,
    /// Update realization.
    pub update: UpdateScheme,
    /// Probability of suppressing an individual update coincidence —
    /// hardware-aware "drop-connect" training \[33\]. 0 disables.
    pub drop_connect: f32,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            noise: AnalogNoise::standard(),
            update: UpdateScheme::StochasticPulse { bl: 31 },
            drop_connect: 0.0,
        }
    }
}

impl TileConfig {
    /// An ideal tile: no converters, no noise, stochastic pulses.
    pub fn ideal() -> Self {
        TileConfig { noise: AnalogNoise::ideal(), ..TileConfig::default() }
    }

    /// Starts building a configuration; constraints are checked once at
    /// [`TileConfigBuilder::build`].
    pub fn builder() -> TileConfigBuilder {
        TileConfigBuilder::default()
    }
}

/// Builder for [`TileConfig`]: set what differs from the defaults
/// (standard noise, stochastic pulses with `bl = 31`, no drop-connect)
/// and let [`build`](TileConfigBuilder::build) validate the whole
/// configuration at once.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileConfigBuilder {
    noise: Option<AnalogNoise>,
    update: Option<UpdateScheme>,
    drop_connect: f32,
}

impl TileConfigBuilder {
    /// Converter/noise model (default: [`AnalogNoise::standard`]).
    pub fn noise(mut self, noise: AnalogNoise) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Update realization (default: stochastic pulses, `bl = 31`).
    pub fn update(mut self, update: UpdateScheme) -> Self {
        self.update = Some(update);
        self
    }

    /// Probability of suppressing an update coincidence (default 0).
    pub fn drop_connect(mut self, p: f32) -> Self {
        self.drop_connect = p;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<TileConfig, CrossbarError> {
        let defaults = TileConfig::default();
        let update = self.update.unwrap_or(defaults.update);
        if let UpdateScheme::StochasticPulse { bl } = update {
            if bl == 0 {
                return Err(CrossbarError::InvalidConfig {
                    reason: "pulse-train length bl must be at least 1",
                });
            }
        }
        if !(0.0..1.0).contains(&self.drop_connect) {
            return Err(CrossbarError::InvalidConfig { reason: "drop_connect must lie in [0, 1)" });
        }
        Ok(TileConfig {
            noise: self.noise.unwrap_or(defaults.noise),
            update,
            drop_connect: self.drop_connect,
        })
    }
}

/// An analog crossbar tile of shape `out_dim × (in_dim + 1)` (one bias
/// column), implementing [`LinearBackend`].
///
/// # Example
///
/// ```
/// use enw_crossbar::devices;
/// use enw_crossbar::tile::{AnalogTile, TileConfig};
/// use enw_nn::backend::LinearBackend;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let mut tile = AnalogTile::new(8, 4, &devices::ideal(1000), TileConfig::ideal(), &mut rng);
/// let y = tile.forward(&[0.1, -0.2, 0.3, 0.4]);
/// assert_eq!(y.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct AnalogTile {
    array: AnalogArray,
    /// Zero-shift reference conductances (row-major), if calibrated.
    reference: Option<Vec<f32>>,
    cfg: TileConfig,
    in_dim: usize,
    /// Mean step size used to scale pulse probabilities.
    dw_avg: f32,
    rng: Rng64,
    stats: TileStats,
    /// The column-side line buffer, `in_dim + 1` long: the
    /// bias-augmented drive `[x; bias_drive]` of a forward read or an
    /// update, or the column currents of a transposed read — a cycle
    /// needs one of them at a time. Owned so a read touches no
    /// thread-local pool; transient (fully overwritten before use) and
    /// excluded from checkpoints.
    line: Vec<f32>,
}

/// The integer form of a Bernoulli(`p`) draw for `p` in `(0, 1]`:
/// `uniform()` is `k · 2⁻⁵³` for the integer `k = next_u64() >> 11` and
/// `p · 2⁵³` is computed without rounding, so `uniform() < p` exactly
/// when `k < ⌈p · 2⁵³⌉`.
#[inline]
fn pulse_threshold(p: f32) -> u64 {
    (p as f64 * (1u64 << 53) as f64).ceil() as u64
}

/// Lists the active lines of `drive` — pulse probability
/// `p = min(amp · |drive|, 1) > 0` — in ascending order as
/// `[index, threshold]` pairs at the front of `lines`, and returns them.
fn list_active<'a>(amp: f32, drive: &[f32], lines: &'a mut [[u64; 2]]) -> &'a [[u64; 2]] {
    let mut n = 0;
    for (i, v) in drive.iter().enumerate() {
        let p = (amp * v.abs()).min(1.0);
        if p > 0.0 {
            lines[n] = [i as u64, pulse_threshold(p)];
            n += 1;
        }
    }
    &lines[..n]
}

/// The indices of the set bits of a limb bitset, ascending.
fn ones(limbs: &[u64]) -> impl Iterator<Item = usize> + '_ {
    limbs.iter().enumerate().flat_map(|(l, &limb)| {
        let rest = |m: u64| (m != 0).then_some(m);
        std::iter::successors(rest(limb), move |&m| rest(m & (m - 1)))
            .map(move |m| l * 64 + m.trailing_zeros() as usize)
    })
}

impl AnalogTile {
    /// Builds a tile over freshly materialized devices, weights at zero.
    pub fn new(
        out_dim: usize,
        in_dim: usize,
        spec: &DeviceSpec,
        cfg: TileConfig,
        rng: &mut Rng64,
    ) -> Self {
        let array = AnalogArray::new(out_dim, in_dim + 1, spec, rng);
        let dw_avg = 0.5 * (spec.base.dw_up + spec.base.dw_down);
        AnalogTile {
            array,
            reference: None,
            cfg,
            in_dim,
            dw_avg,
            rng: rng.fork(),
            stats: TileStats::default(),
            line: vec![0.0; in_dim + 1],
        }
    }

    /// Snapshot of the tile RNG for checkpointing. Together with the
    /// array's [`weights_raw`](AnalogArray::weights_raw) and
    /// [`pulse_count`](AnalogArray::pulse_count) this captures every
    /// bit of mutable tile state.
    pub fn rng_state(&self) -> RngState {
        self.rng.state()
    }

    /// Restores the tile RNG from a checkpoint snapshot.
    pub fn restore_rng(&mut self, state: RngState) {
        self.rng = Rng64::restore(state);
    }

    /// Restores the event counters from a checkpoint snapshot.
    pub fn restore_stats(&mut self, stats: TileStats) {
        self.stats = stats;
    }

    /// Write-verify programs the tile's *effective* weights to `target`
    /// (shape `out_dim × (in_dim + 1)`), accounting for any zero-shift
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the shape mismatches.
    pub fn program_effective(&mut self, target: &Matrix) {
        let physical = match &self.reference {
            None => target.clone(),
            Some(r) => {
                let mut t = target.clone();
                for row in 0..t.rows() {
                    for col in 0..t.cols() {
                        let v = t.at(row, col) + r[row * t.cols() + col];
                        t.set(row, col, v);
                    }
                }
                t
            }
        };
        let mut rng = self.rng.fork();
        self.array.program(&physical, self.dw_avg * 0.6, 4000, &mut rng);
        let cells = (self.array.rows() * self.array.cols()) as u64;
        // Program reads the full target image and rewrites every device.
        enw_trace::record_span_io("crossbar/program", cells, 4 * cells, 4 * cells);
    }

    /// Zero-shift calibration \[30\]: drives every device to its symmetry
    /// point, then records that state as the reference. Effective weights
    /// are zero afterwards; the symmetry point becomes the logical zero,
    /// so asymmetric devices decay toward 0 instead of a biased value.
    pub fn calibrate_zero_shift(&mut self, pairs: u32) {
        let mut rng = self.rng.fork();
        self.array.converge_to_symmetry(pairs, &mut rng);
        self.reference = Some(self.array.read_matrix().as_slice().to_vec());
    }

    /// Returns `true` if a zero-shift reference is installed.
    pub fn is_zero_shifted(&self) -> bool {
        self.reference.is_some()
    }

    /// Event counters.
    pub fn stats(&self) -> TileStats {
        self.stats
    }

    /// The underlying array (for defect injection and inspection).
    pub fn array_mut(&mut self) -> &mut AnalogArray {
        &mut self.array
    }

    /// The underlying array, shared.
    pub fn array(&self) -> &AnalogArray {
        &self.array
    }

    /// Subtracts the zero-shift reference product `R · x` from `y`
    /// in place (no-op without a calibrated reference). The reference
    /// term for each row accumulates in ascending-column order, exactly
    /// as the pre-`_into` per-call-buffer code did, so results are
    /// bit-identical.
    fn sub_reference_matvec(&self, x: &[f32], y: &mut [f32]) {
        if let Some(r) = &self.reference {
            let cols = self.array.cols();
            for (row, out) in y.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (c, xi) in x.iter().enumerate() {
                    acc += r[row * cols + c] * xi;
                }
                *out -= acc;
            }
        }
    }

    /// Transposed counterpart of
    /// [`sub_reference_matvec`](AnalogTile::sub_reference_matvec):
    /// subtracts `Rᵀ · d` from `y` in place, walking rows in ascending
    /// order like the serial reference read.
    fn sub_reference_matvec_t(&self, d: &[f32], y: &mut [f32]) {
        if let Some(r) = &self.reference {
            let cols = self.array.cols();
            let mut refp = enw_parallel::scratch::take_f32(cols);
            for (row, di) in d.iter().enumerate() {
                for (c, out) in refp.iter_mut().enumerate() {
                    *out += r[row * cols + c] * di;
                }
            }
            for (out, rp) in y.iter_mut().zip(refp.iter()) {
                *out -= rp;
            }
        }
    }

    /// Takes the line buffer, loaded with the bias-augmented input
    /// `[x; bias_drive]`; the caller puts it back into `self.line`.
    /// Monolithic use drives the bias line at 1.0; sub-tiles of a
    /// [`TiledAnalogLayer`](crate::tiled::TiledAnalogLayer) that do not
    /// own the logical bias drive it at 0.0, which silences their bias
    /// column in every cycle (zero forward contribution, zero pulse
    /// probability, no RNG draws).
    fn take_augmented(&mut self, x: &[f32], bias_drive: f32) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        let mut xa = std::mem::take(&mut self.line);
        xa[..self.in_dim].copy_from_slice(x);
        xa[self.in_dim] = bias_drive;
        xa
    }

    /// The stochastic pulse update, under the draw contract in the
    /// [module docs](self): same generator outputs in the same order as
    /// ever, and as little work around them as the contract allows.
    fn update_stochastic(&mut self, delta: &[f32], xa: &[f32], lr: f32, bl: u32) {
        // Choose pulse probabilities so the expected coincidence count
        // yields the SGD step: E[Δw_ij] = −lr·d_i·x_j.
        let amp = (lr / (bl as f32 * self.dw_avg)).sqrt();
        let (rows, cols, bl) = (delta.len(), xa.len(), bl as usize);
        // All staging is one zero-filled check-out, so a steady-state
        // training step allocates nothing here and every mask starts
        // clear: per row a step mask (bit `s` set: the row fired on
        // step `s`), per step a column bitset, per row a stream seed,
        // and the active lines as dense `[index, threshold]` pairs.
        let (mlimbs, climbs) = (bl.div_ceil(64), cols.div_ceil(64));
        let mut staging = enw_parallel::scratch::take_bits(
            rows * mlimbs + bl * climbs + rows + 2 * (rows + cols),
        );
        let (row_steps, rest) = staging.split_at_mut(rows * mlimbs);
        let (step_cols, rest) = rest.split_at_mut(bl * climbs);
        let (seeds, rest) = rest.split_at_mut(rows);
        let (row_lines, col_lines) = rest.split_at_mut(2 * rows);
        let active_rows = list_active(amp, delta, row_lines.as_chunks_mut().0);
        let active_cols = list_active(amp, xa, col_lines.as_chunks_mut().0);
        // Phase 1 (serial): the tile RNG fires the pulse trains step by
        // step, rows then columns, exactly as the hardware does. A hit is
        // OR-ed into its mask as a bit, with no branch on the draw.
        for (s, fired_cols) in step_cols.chunks_exact_mut(climbs).enumerate() {
            let (limb, bit) = (s / 64, s % 64);
            for &[i, thr] in active_rows {
                let hit = u64::from((self.rng.next_u64() >> 11) < thr);
                row_steps[i as usize * mlimbs + limb] |= hit << bit;
            }
            for &[j, thr] in active_cols {
                let hit = u64::from((self.rng.next_u64() >> 11) < thr);
                fired_cols[j as usize / 64] |= hit << (j % 64);
            }
        }
        for seed in seeds.iter_mut() {
            *seed = self.rng.next_u64();
        }
        // Phase 2 (parallel over rows): every coincidence on row `r`
        // only touches devices in row `r`, so rows are independent given
        // their own RNG stream. One seed per row drawn from the tile RNG
        // (serially, in row order) makes the result identical for any
        // worker count — and identical to running the loop serially.
        let drop_connect = self.cfg.drop_connect;
        let pulses = self.array.par_pulse_by_row(PAR_UPDATE_ROW_CHUNK, |r, pulser| {
            let steps = &row_steps[r * mlimbs..(r + 1) * mlimbs];
            if steps.iter().all(|&m| m == 0) {
                return 0;
            }
            let mut rng = Rng64::new(seeds[r]);
            let di = delta[r];
            let mut fired = 0u64;
            for s in ones(steps) {
                for j in ones(&step_cols[s * climbs..(s + 1) * climbs]) {
                    if drop_connect > 0.0 && rng.bernoulli(drop_connect as f64) {
                        continue;
                    }
                    // Δw should be −lr·d·x: step up when d·x < 0.
                    let dir = if di * xa[j] < 0.0 { PulseDir::Up } else { PulseDir::Down };
                    pulser.pulse(j, dir, &mut rng);
                    fired += 1;
                }
            }
            fired
        });
        self.stats.pulses += pulses;
    }

    fn update_mean_field(&mut self, delta: &[f32], xa: &[f32], lr: f32) {
        for (i, &d) in delta.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            for (j, &x) in xa.iter().enumerate() {
                let target = -lr * d * x;
                if target == 0.0 {
                    continue;
                }
                let dir = if target > 0.0 { PulseDir::Up } else { PulseDir::Down };
                let n = target.abs() / self.dw_avg;
                // One state-dependent step evaluation scaled by the pulse
                // count; write noise scales with √n as for n i.i.d. pulses.
                let dev = *self.array.device(i, j);
                let mean = dev.expected_step(self.array.weight(i, j), dir) * n;
                let noise = if dev.write_noise > 0.0 && dev.responsive {
                    (dev.write_noise as f64
                        * self.dw_avg as f64
                        * (n as f64).sqrt()
                        * self.rng.normal()) as f32
                } else {
                    0.0
                };
                let w = self.array.weight(i, j);
                self.array.set_weight(i, j, w + mean + noise);
                self.stats.pulses += n.ceil() as u64;
            }
        }
    }
}

impl AnalogTile {
    /// [`forward_into`](LinearBackend::forward_into) with an explicit
    /// bias-line drive. The public trait method drives the bias at 1.0;
    /// [`TiledAnalogLayer`](crate::tiled::TiledAnalogLayer) drives it at
    /// 0.0 on every sub-tile except the ones owning the logical bias, so
    /// partial sums across column blocks add exactly one bias term per
    /// output row. With `bias_drive == 1.0` this is the identical code
    /// (and RNG) path as the monolithic forward.
    pub fn forward_biased_into(&mut self, x: &[f32], bias_drive: f32, out: &mut [f32]) {
        let mut xa = self.take_augmented(x, bias_drive);
        self.cfg.noise.apply_input(&mut xa);
        // The array read plans its own fan-out from the array shape.
        self.array.matvec_into(&xa, self.cfg.noise.ir_drop, out);
        self.sub_reference_matvec(&xa, out);
        self.line = xa;
        self.cfg.noise.apply_output(out, &mut self.rng);
        self.stats.forward_ops += 1;
        let (rows, cols) = (self.array.rows() as u64, self.array.cols() as u64);
        enw_trace::record_span_io("crossbar/mvm", rows * cols, 4 * (rows * cols + cols), 4 * rows);
    }

    /// [`update`](LinearBackend::update) with an explicit bias-line
    /// drive (see [`forward_biased_into`](AnalogTile::forward_biased_into)).
    /// A 0.0 drive gives the bias column zero pulse probability, so it
    /// fires no pulses and consumes no RNG draws.
    pub fn update_biased(&mut self, delta: &[f32], x: &[f32], bias_drive: f32, lr: f32) {
        assert_eq!(delta.len(), self.array.rows(), "gradient dimension mismatch");
        let xa = self.take_augmented(x, bias_drive);
        let pulses_before = self.stats.pulses;
        match self.cfg.update {
            UpdateScheme::StochasticPulse { bl } => self.update_stochastic(delta, &xa, lr, bl),
            UpdateScheme::MeanField => self.update_mean_field(delta, &xa, lr),
        }
        self.line = xa;
        self.stats.update_ops += 1;
        enw_trace::record_span("crossbar/update", self.stats.pulses - pulses_before);
    }
}

impl LinearBackend for AnalogTile {
    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.array.rows()
    }

    fn forward_into(&mut self, x: &[f32], out: &mut [f32]) {
        self.forward_biased_into(x, 1.0, out);
    }

    fn backward_into(&mut self, delta: &[f32], out: &mut [f32]) {
        assert_eq!(delta.len(), self.array.rows(), "gradient dimension mismatch");
        assert_eq!(out.len(), self.in_dim, "gradient output dimension mismatch");
        // The periphery applies output noise to the full column read —
        // bias column included — before truncation, so the RNG stream
        // (and therefore every later draw) matches the allocating path.
        let mut y = std::mem::take(&mut self.line);
        self.array.matvec_t_into(delta, self.cfg.noise.ir_drop, &mut y);
        self.sub_reference_matvec_t(delta, &mut y);
        self.cfg.noise.apply_output(&mut y, &mut self.rng);
        out.copy_from_slice(&y[..self.in_dim]);
        self.line = y;
        self.stats.backward_ops += 1;
        let (rows, cols) = (self.array.rows() as u64, self.array.cols() as u64);
        enw_trace::record_span_io(
            "crossbar/mvm_t",
            rows * cols,
            4 * (rows * cols + rows),
            4 * cols,
        );
    }

    fn update(&mut self, delta: &[f32], x: &[f32], lr: f32) {
        self.update_biased(delta, x, 1.0, lr);
    }

    fn weights(&self) -> Matrix {
        let physical = self.array.read_matrix();
        match &self.reference {
            None => physical,
            Some(r) => {
                let mut m = physical;
                let cols = m.cols();
                for row in 0..m.rows() {
                    for col in 0..cols {
                        let v = m.at(row, col) - r[row * cols + col];
                        m.set(row, col, v);
                    }
                }
                m
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    fn ideal_tile(out: usize, inp: usize, seed: u64) -> AnalogTile {
        let mut rng = Rng64::new(seed);
        AnalogTile::new(out, inp, &devices::ideal(2000), TileConfig::ideal(), &mut rng)
    }

    #[test]
    fn forward_of_zero_weights_is_zero() {
        let mut t = ideal_tile(3, 2, 1);
        assert_eq!(t.forward(&[0.5, -0.5]), vec![0.0; 3]);
    }

    #[test]
    fn programmed_tile_matches_digital_forward() {
        let mut t = ideal_tile(2, 2, 2);
        let target = Matrix::from_rows(&[&[0.3, -0.2, 0.1], &[0.0, 0.5, -0.4]]);
        t.program_effective(&target);
        let y = t.forward(&[1.0, 1.0]);
        let expect = [0.3 - 0.2 + 0.1, 0.5 - 0.4];
        for (a, e) in y.iter().zip(expect) {
            assert!((a - e).abs() < 0.01, "{a} vs {e}");
        }
    }

    #[test]
    fn backward_is_transpose() {
        let mut t = ideal_tile(2, 3, 3);
        let target = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.0], &[-0.1, 0.0, 0.4, 0.0]]);
        t.program_effective(&target);
        let dx = t.backward(&[1.0, 1.0]);
        assert_eq!(dx.len(), 3);
        assert!((dx[0] - 0.0).abs() < 0.02);
        assert!((dx[2] - 0.7).abs() < 0.02);
    }

    #[test]
    fn stochastic_update_moves_weights_in_expectation() {
        let mut t = ideal_tile(1, 1, 4);
        // Repeat the same update many times; mean movement should approach
        // −lr·d·x per update.
        let lr = 0.001;
        let n = 400;
        for _ in 0..n {
            t.update(&[1.0], &[1.0], lr);
        }
        let w = t.weights().at(0, 0);
        let expect = -(lr * n as f32);
        assert!((w - expect).abs() < 0.2 * expect.abs(), "w {w} vs expected {expect}");
    }

    #[test]
    fn update_sign_convention_descends() {
        // Positive delta and positive x must *decrease* the weight
        // (gradient descent), matching DigitalLinear.
        let mut t = ideal_tile(1, 1, 5);
        for _ in 0..50 {
            t.update(&[1.0], &[1.0], 0.05);
        }
        assert!(t.weights().at(0, 0) < -0.01);
    }

    #[test]
    fn mean_field_matches_stochastic_direction() {
        let mut rng = Rng64::new(6);
        let cfg = TileConfig { update: UpdateScheme::MeanField, ..TileConfig::ideal() };
        let mut t = AnalogTile::new(1, 1, &devices::ideal(2000), cfg, &mut rng);
        for _ in 0..50 {
            t.update(&[-1.0], &[1.0], 0.05);
        }
        assert!(t.weights().at(0, 0) > 0.01);
    }

    #[test]
    fn zero_shift_reference_zeroes_effective_weights() {
        let mut rng = Rng64::new(7);
        let mut t = AnalogTile::new(4, 3, &devices::rram(), TileConfig::ideal(), &mut rng);
        t.calibrate_zero_shift(800);
        assert!(t.is_zero_shifted());
        let w = t.weights();
        for r in 0..4 {
            for c in 0..4 {
                assert!(w.at(r, c).abs() < 0.05, "effective weight {} at ({r},{c})", w.at(r, c));
            }
        }
        // Forward of the zero-shifted tile is ~0 for any input.
        let y = t.forward(&[1.0, 1.0, 1.0]);
        assert!(y.iter().all(|v| v.abs() < 0.2), "{y:?}");
    }

    #[test]
    fn stats_count_cycles() {
        let mut t = ideal_tile(2, 2, 8);
        t.forward(&[0.0, 0.0]);
        t.backward(&[0.0, 0.0]);
        t.update(&[1.0, 0.5], &[1.0, 1.0], 0.01);
        let s = t.stats();
        assert_eq!(s.forward_ops, 1);
        assert_eq!(s.backward_ops, 1);
        assert_eq!(s.update_ops, 1);
    }

    #[test]
    fn bias_column_participates_in_forward() {
        let mut t = ideal_tile(1, 1, 9);
        let target = Matrix::from_rows(&[&[0.0, 0.5]]); // zero weight, 0.5 bias
        t.program_effective(&target);
        let y = t.forward(&[0.0]);
        assert!((y[0] - 0.5).abs() < 0.01);
    }

    #[test]
    fn stochastic_update_is_thread_count_invariant() {
        // Noisy devices + drop-connect exercise every RNG consumer in the
        // update; per-row forked streams must make the final weights and
        // pulse counts bitwise independent of the worker count.
        let make = || {
            let mut rng = Rng64::new(21);
            let cfg = TileConfig { drop_connect: 0.3, ..TileConfig::ideal() };
            AnalogTile::new(40, 24, &devices::rram(), cfg, &mut rng)
        };
        let d: Vec<f32> = (0..40).map(|i| ((i % 5) as f32 - 2.0) / 8.0).collect();
        let x: Vec<f32> = (0..24).map(|i| ((i % 7) as f32 - 3.0) / 8.0).collect();
        let run = |threads: usize| {
            enw_parallel::with_threads(threads, || {
                let mut t = make();
                for _ in 0..5 {
                    t.update(&d, &x, 0.02);
                }
                (t.weights(), t.stats().pulses)
            })
        };
        let (w1, p1) = run(1);
        assert!(p1 > 0, "update should fire pulses");
        for threads in [2usize, 3, 8] {
            let (w, p) = run(threads);
            assert_eq!(p, p1, "pulse count changed at {threads} threads");
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w), bits(&w1), "weights changed at {threads} threads");
        }
    }

    /// The update as it was before the bitset staging, kept as the
    /// oracle of the draw contract: float compares, one flag per (step,
    /// row), each step's fired columns as an index list, and one forked
    /// stream per row whether or not the row ever fires.
    fn update_stochastic_reference(
        t: &mut AnalogTile,
        delta: &[f32],
        xa: &[f32],
        lr: f32,
        bl: u32,
    ) {
        let amp = (lr / (bl as f32 * t.dw_avg)).sqrt();
        let p_row: Vec<f32> = delta.iter().map(|d| (amp * d.abs()).min(1.0)).collect();
        let p_col: Vec<f32> = xa.iter().map(|x| (amp * x.abs()).min(1.0)).collect();
        let mut rows_fired: Vec<Vec<bool>> = Vec::new();
        let mut cols_fired: Vec<Vec<usize>> = Vec::new();
        for _ in 0..bl {
            rows_fired.push(p_row.iter().map(|&p| p > 0.0 && t.rng.bernoulli(p as f64)).collect());
            let mut fired = Vec::new();
            for (j, &p) in p_col.iter().enumerate() {
                if p > 0.0 && t.rng.bernoulli(p as f64) {
                    fired.push(j);
                }
            }
            cols_fired.push(fired);
        }
        let streams: Vec<Rng64> = delta.iter().map(|_| t.rng.fork()).collect();
        let drop_connect = t.cfg.drop_connect;
        let pulses = t.array.par_pulse_by_row(PAR_UPDATE_ROW_CHUNK, |r, pulser| {
            let mut rng = streams[r].clone();
            let mut fired = 0u64;
            for (row_fired, cols) in rows_fired.iter().zip(&cols_fired) {
                if !row_fired[r] {
                    continue;
                }
                for &j in cols {
                    if drop_connect > 0.0 && rng.bernoulli(drop_connect as f64) {
                        continue;
                    }
                    let dir = if delta[r] * xa[j] < 0.0 { PulseDir::Up } else { PulseDir::Down };
                    pulser.pulse(j, dir, &mut rng);
                    fired += 1;
                }
            }
            fired
        });
        t.stats.pulses += pulses;
    }

    /// Five updates of a clone of `fresh` at `bl` and `drop_connect`,
    /// through the oracle and — at 1 and 3 threads — through
    /// `update_biased`: same weights, pulse counts and tile-RNG state,
    /// bit for bit. Returns the pulses fired.
    fn assert_update_matches_reference(
        fresh: &AnalogTile,
        (bl, drop_connect): (u32, f32),
        (delta, x, bias): (&[f32], &[f32], f32),
    ) -> u64 {
        let update = UpdateScheme::StochasticPulse { bl };
        let cfg = TileConfig { update, drop_connect, ..fresh.cfg };
        let mut oracle = fresh.clone();
        oracle.cfg = cfg;
        let xa: Vec<f32> = x.iter().copied().chain([bias]).collect();
        for _ in 0..5 {
            update_stochastic_reference(&mut oracle, delta, &xa, 0.02, bl);
        }
        let bits = |t: &AnalogTile| -> Vec<u32> {
            t.array.weights_raw().iter().map(|w| w.to_bits()).collect()
        };
        for threads in [1, 3] {
            let mut tile = fresh.clone();
            tile.cfg = cfg;
            enw_parallel::with_threads(threads, || {
                for _ in 0..5 {
                    tile.update_biased(delta, x, bias, 0.02);
                }
            });
            let case = format!(
                "{}x{} bl {bl} drop {drop_connect} bias {bias} at {threads} thread(s)",
                delta.len(),
                x.len()
            );
            assert_eq!(bits(&tile), bits(&oracle), "weights, {case}");
            assert_eq!(tile.stats.pulses, oracle.stats.pulses, "pulses, {case}");
            assert_eq!(tile.array.pulse_count(), oracle.array.pulse_count(), "array, {case}");
            assert_eq!(tile.rng_state(), oracle.rng_state(), "tile rng, {case}");
        }
        oracle.stats.pulses
    }

    #[test]
    fn update_matches_the_list_based_reference_bit_for_bit() {
        // Drives with exact zeros (inactive lines), saturating entries
        // (p = 1.0), the smallest normal (a threshold of one count) and
        // ordinary values; `zeros` silences a whole side, and both sides
        // silent with the bias at 0.0 is an update with no draw but the
        // row seeds.
        let mixed = |n: usize| -> Vec<f32> {
            let pattern = [0.4, 0.0, -1e6, f32::MIN_POSITIVE, -0.05, 0.9, 0.0, 3.0];
            (0..n).map(|i| pattern[(i * 5 + i / 8) % pattern.len()]).collect()
        };
        let zeros = |n: usize| vec![0.0f32; n];
        let mut pulses = 0;
        // Up to 201 columns (four limbs) and past 64 rows (five row
        // chunks); `bl` past 64 needs a second step-mask limb.
        for (out, inp) in [(1, 1), (4, 9), (8, 10), (40, 24), (70, 130), (3, 200)] {
            let drives = [
                (mixed(out), mixed(inp), 1.0),
                (mixed(out), mixed(inp), 0.0),
                (zeros(out), mixed(inp), 1.0),
                (mixed(out), zeros(inp), 1.0),
                (zeros(out), zeros(inp), 0.0),
            ];
            for spec in [devices::ideal(2000), devices::rram(), devices::ecram()] {
                let fresh =
                    AnalogTile::new(out, inp, &spec, TileConfig::ideal(), &mut Rng64::new(33));
                for bl in [1, 31, 64, 65, 100] {
                    for (delta, x, bias) in &drives {
                        for drop_connect in [0.0, 0.3] {
                            pulses += assert_update_matches_reference(
                                &fresh,
                                (bl, drop_connect),
                                (delta, x, *bias),
                            );
                        }
                    }
                }
            }
        }
        assert!(pulses > 100_000, "the sweep must fire: {pulses} pulses");
    }

    #[test]
    fn threshold_compare_is_the_float_compare() {
        // `Rng64::bernoulli(p)` on the output whose top 53 bits are `k`.
        let float_compare = |k: u64, p: f32| (k as f64 * (1.0 / (1u64 << 53) as f64)) < p as f64;
        let top = (1u64 << 53) - 1;
        let mut rng = Rng64::new(53);
        let mut ps = vec![
            1.0,
            f32::from_bits(1.0f32.to_bits() - 1),
            0.5,
            1.0 / 3.0,
            f32::EPSILON,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
        ];
        // Every binade of (0, 1] many times over, subnormals included.
        ps.extend((0..20_000).map(|_| f32::from_bits(rng.below(0x3f80_0000) as u32 + 1)));
        let mut fired = 0u64;
        for p in ps {
            let thr = pulse_threshold(p);
            assert!((1..=top + 1).contains(&thr), "p = {p:e}");
            let around = [0, thr - 1, thr.min(top), (thr + 1).min(top), top];
            let random =
                [rng.next_u64() >> 11, rng.next_u64() >> 11, rng.below(thr as usize) as u64];
            for k in around.into_iter().chain(random) {
                assert_eq!(k < thr, float_compare(k, p), "p = {p:e}, k = {k}");
                fired += u64::from(k < thr);
            }
        }
        assert!(fired > 40_000, "the sweep must see both outcomes");
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = TileConfig::builder().build().expect("defaults are valid");
        assert_eq!(built, TileConfig::default());
        let ideal = TileConfig::builder().noise(AnalogNoise::ideal()).build().expect("valid");
        assert_eq!(ideal, TileConfig::ideal());
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let err = TileConfig::builder().drop_connect(1.5).build();
        assert!(matches!(err, Err(CrossbarError::InvalidConfig { .. })), "{err:?}");
        let err = TileConfig::builder().update(UpdateScheme::StochasticPulse { bl: 0 }).build();
        assert!(matches!(err, Err(CrossbarError::InvalidConfig { .. })), "{err:?}");
    }

    #[test]
    fn drop_connect_reduces_pulse_count() {
        let mut rng = Rng64::new(10);
        let spec = devices::ideal(2000);
        let mut plain = AnalogTile::new(8, 8, &spec, TileConfig::ideal(), &mut rng);
        let cfg_dc = TileConfig { drop_connect: 0.8, ..TileConfig::ideal() };
        let mut dropped = AnalogTile::new(8, 8, &spec, cfg_dc, &mut rng);
        let d = vec![1.0f32; 8];
        let x = vec![1.0f32; 8];
        for _ in 0..20 {
            plain.update(&d, &x, 0.05);
            dropped.update(&d, &x, 0.05);
        }
        assert!(dropped.stats().pulses < plain.stats().pulses / 2);
    }
}
