//! The analog crossbar array: a grid of pulsed devices holding weights as
//! conductances, with in-place forward/transposed reads and per-device
//! pulse programming.
//!
//! The array is the physical object; circuit-level concerns (converters,
//! noise, update pulse trains) live in [`crate::tile`]. Keeping the split
//! mirrors the hardware: the same array is shared by inference-only and
//! training peripheries.

use crate::device::{DeviceSpec, PulseDir, PulsedDevice};
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;

/// How a defective device fails (paper Sec. II-B2: imperfect yield).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectMode {
    /// Stuck open: contributes no current (weight 0), ignores pulses.
    StuckAtZero,
    /// Stuck at a uniformly random conductance within its bounds.
    StuckAtRandom,
    /// Stuck at the maximum conductance (shorted filament).
    StuckAtMax,
}

/// A crossbar array of `rows × cols` pulsed devices.
///
/// # Example
///
/// ```
/// use enw_crossbar::array::AnalogArray;
/// use enw_crossbar::devices;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let arr = AnalogArray::new(4, 3, &devices::ideal(1000), &mut rng);
/// let y = arr.matvec(&[1.0, 0.5, -0.5], 0.0);
/// assert_eq!(y.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogArray {
    rows: usize,
    cols: usize,
    weights: Vec<f32>,
    devices: Vec<PulsedDevice>,
    pulse_count: u64,
}

impl AnalogArray {
    /// Builds an array by materializing `spec` at every crosspoint; all
    /// weights start at 0.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, spec: &DeviceSpec, rng: &mut Rng64) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        let devices = (0..rows * cols).map(|_| spec.materialize(rng)).collect();
        AnalogArray { rows, cols, weights: vec![0.0; rows * cols], devices, pulse_count: 0 }
    }

    /// Number of rows (output lines in the forward direction).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input lines in the forward direction).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total programming pulses applied since construction.
    pub fn pulse_count(&self) -> u64 {
        self.pulse_count
    }

    /// The stored weight at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn weight(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.weights[r * self.cols + c]
    }

    /// Device parameters at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn device(&self, r: usize, c: usize) -> &PulsedDevice {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.devices[r * self.cols + c]
    }

    /// Directly sets a weight, clamped to the device's bounds. Models a
    /// slow, exact write-verify programming step — not something training
    /// hardware does per update, but available for initialization studies.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set_weight(&mut self, r: usize, c: usize, w: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let i = r * self.cols + c;
        let d = &self.devices[i];
        self.weights[i] = w.clamp(d.w_min, d.w_max);
    }

    /// Forward read `y = W · x` with optional IR drop.
    ///
    /// The IR-drop model attenuates each crosspoint's contribution by
    /// `1 − ir_drop · (r/rows + c/cols)/2`: devices far from both drivers
    /// lose the most signal, a first-order picture of interconnect
    /// resistance on large arrays (why the paper wants 10–100 MΩ devices).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32], ir_drop: f32) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, ir_drop, &mut y);
        y
    }

    /// [`matvec`](AnalogArray::matvec) into a caller-owned output buffer
    /// (`y` is fully overwritten): each output current is one
    /// ascending-column sum, on the calling thread — the hardware read is
    /// O(1) and booked on the virtual clock, and simulations parallelise
    /// across tiles and samples, not inside one array read.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f32], ir_drop: f32, y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        for (r, (out, row)) in y.iter_mut().zip(self.weights.chunks_exact(self.cols)).enumerate() {
            let mut acc = 0.0f32;
            if ir_drop == 0.0 {
                for (w, xi) in row.iter().zip(x) {
                    acc += w * xi;
                }
            } else {
                let rfrac = r as f32 / self.rows as f32;
                for (c, (w, xi)) in row.iter().zip(x).enumerate() {
                    let atten = 1.0 - ir_drop * 0.5 * (rfrac + c as f32 / self.cols as f32);
                    acc += w * xi * atten;
                }
            }
            *out = acc;
        }
    }

    /// Transposed read `y = Wᵀ · d` with the same IR-drop model.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != rows`.
    pub fn matvec_t(&self, d: &[f32], ir_drop: f32) -> Vec<f32> {
        let mut y = vec![0.0f32; self.cols];
        self.matvec_t_into(d, ir_drop, &mut y);
        y
    }

    /// [`matvec_t`](AnalogArray::matvec_t) into a caller-owned output
    /// buffer (`y` is fully overwritten): every output current is
    /// accumulated over ascending rows, on the calling thread; rows
    /// driven with exactly zero are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != rows` or `y.len() != cols`.
    pub fn matvec_t_into(&self, d: &[f32], ir_drop: f32, y: &mut [f32]) {
        assert_eq!(d.len(), self.rows, "matvec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t output dimension mismatch");
        y.fill(0.0);
        for (r, (di, row)) in d.iter().zip(self.weights.chunks_exact(self.cols)).enumerate() {
            if *di == 0.0 {
                continue;
            }
            if ir_drop == 0.0 {
                for (out, w) in y.iter_mut().zip(row) {
                    *out += w * di;
                }
            } else {
                let rfrac = r as f32 / self.rows as f32;
                for (c, (out, w)) in y.iter_mut().zip(row).enumerate() {
                    let atten = 1.0 - ir_drop * 0.5 * (rfrac + c as f32 / self.cols as f32);
                    *out += w * di * atten;
                }
            }
        }
    }

    /// Applies one programming pulse to device `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn pulse(&mut self, r: usize, c: usize, dir: PulseDir, rng: &mut Rng64) {
        debug_assert!(r < self.rows && c < self.cols);
        let i = r * self.cols + c;
        self.weights[i] = self.devices[i].pulse(self.weights[i], dir, rng);
        self.pulse_count += 1;
    }

    /// Runs a caller-supplied pulse routine over every row, in parallel
    /// across fixed `row_chunk`-sized row blocks, and returns the total
    /// number of pulses fired (also added to the array's pulse counter).
    ///
    /// Each invocation of `f` gets a [`RowPulser`] giving exclusive
    /// mutable access to that row's weights — rows are disjoint, so any
    /// schedule of rows across workers produces the same final state as
    /// the serial loop, provided `f` itself is deterministic per row
    /// (e.g. drives its randomness from a per-row seeded stream, as
    /// `AnalogTile::update_stochastic` does).
    pub fn par_pulse_by_row<F>(&mut self, row_chunk: usize, f: F) -> u64
    where
        F: Fn(usize, &mut RowPulser<'_>) -> u64 + Sync,
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cols = self.cols;
        let devices = &self.devices;
        // Pulse totals are summed through an integer atomic rather than a
        // per-chunk result vector: u64 addition is exact and commutative,
        // so the count is schedule-independent, and the section stays
        // allocation-free — which keeps the whole training step zero-alloc
        // in steady state (E21's gate).
        let total = AtomicU64::new(0);
        enw_parallel::run_chunks_mut(&mut self.weights, row_chunk.max(1) * cols, |start, window| {
            let r0 = start / cols;
            let mut chunk_total = 0u64;
            for (k, wrow) in window.chunks_mut(cols).enumerate() {
                let r = r0 + k;
                let mut pulser =
                    RowPulser { weights: wrow, devices: &devices[r * cols..(r + 1) * cols] };
                chunk_total += f(r, &mut pulser);
            }
            total.fetch_add(chunk_total, Ordering::Relaxed);
        });
        let total = total.load(Ordering::Relaxed);
        self.pulse_count += total;
        total
    }

    /// The stored weights, row-major. The raw-state counterpart of
    /// [`read_matrix`](AnalogArray::read_matrix), used by checkpointing
    /// to serialize conductances without an intermediate copy.
    pub fn weights_raw(&self) -> &[f32] {
        &self.weights
    }

    /// Overwrites the stored weights from a row-major slice, bit-exact
    /// (no device-bound clamping — the values are expected to come from
    /// [`weights_raw`](AnalogArray::weights_raw) of an identically
    /// constructed array, as in checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != rows * cols`.
    pub fn restore_weights(&mut self, w: &[f32]) {
        assert_eq!(w.len(), self.weights.len(), "weight snapshot shape mismatch");
        self.weights.copy_from_slice(w);
    }

    /// Overwrites the lifetime pulse counter (checkpoint restore).
    pub fn restore_pulse_count(&mut self, n: u64) {
        self.pulse_count = n;
    }

    /// Exact snapshot of the stored weights.
    pub fn read_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.weights.clone())
    }

    /// Column `c` of the stored weights.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "column out of bounds");
        (0..self.rows).map(|r| self.weights[r * self.cols + c]).collect()
    }

    /// Marks a fraction of devices defective; returns how many were hit.
    ///
    /// Defective devices stop responding to pulses and take the weight
    /// dictated by `mode`.
    pub fn inject_defects(&mut self, fraction: f64, mode: DefectMode, rng: &mut Rng64) -> usize {
        let n = ((self.rows * self.cols) as f64 * fraction).round() as usize;
        let hit = rng.sample_indices(self.rows * self.cols, n.min(self.rows * self.cols));
        for &i in &hit {
            self.devices[i].responsive = false;
            self.weights[i] = match mode {
                DefectMode::StuckAtZero => 0.0,
                DefectMode::StuckAtMax => self.devices[i].w_max,
                DefectMode::StuckAtRandom => {
                    rng.range(self.devices[i].w_min as f64, self.devices[i].w_max as f64) as f32
                }
            };
        }
        hit.len()
    }

    /// Per-device symmetry points, row-major (the quantity zero-shifting
    /// measures and stores in a reference array).
    pub fn symmetry_points(&self) -> Vec<f32> {
        self.devices.iter().map(|d| d.symmetry_point()).collect()
    }

    /// Drives every device to its symmetry point by `pairs` alternating
    /// up/down pulse pairs — the measurement phase of zero-shifting \[30\].
    pub fn converge_to_symmetry(&mut self, pairs: u32, rng: &mut Rng64) {
        for i in 0..self.weights.len() {
            let d = self.devices[i];
            let mut w = self.weights[i];
            for _ in 0..pairs {
                w = d.pulse(w, PulseDir::Up, rng);
                w = d.pulse(w, PulseDir::Down, rng);
            }
            self.weights[i] = w;
            self.pulse_count += 2 * pairs as u64;
        }
    }

    /// Closed-loop (write-verify) programming of a target weight pattern:
    /// iteratively pulses each device toward its target until within
    /// `tolerance` or `max_pulses` is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `target` has a different shape.
    pub fn program(&mut self, target: &Matrix, tolerance: f32, max_pulses: u32, rng: &mut Rng64) {
        assert_eq!(
            (target.rows(), target.cols()),
            (self.rows, self.cols),
            "program target shape mismatch"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                let i = r * self.cols + c;
                let d = self.devices[i];
                let t = target.at(r, c).clamp(d.w_min, d.w_max);
                let mut w = self.weights[i];
                for _ in 0..max_pulses {
                    let err = t - w;
                    if err.abs() <= tolerance {
                        break;
                    }
                    let dir = if err > 0.0 { PulseDir::Up } else { PulseDir::Down };
                    w = d.pulse(w, dir, rng);
                    self.pulse_count += 1;
                }
                self.weights[i] = w;
            }
        }
    }
}

/// Exclusive view of one crossbar row handed out by
/// [`AnalogArray::par_pulse_by_row`]: lets update code pulse devices in
/// that row without aliasing any other row.
pub struct RowPulser<'a> {
    weights: &'a mut [f32],
    devices: &'a [PulsedDevice],
}

impl RowPulser<'_> {
    /// Applies one programming pulse to the device at column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[inline]
    pub fn pulse(&mut self, c: usize, dir: PulseDir, rng: &mut Rng64) {
        self.weights[c] = self.devices[c].pulse(self.weights[c], dir, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    fn small_array(rng: &mut Rng64) -> AnalogArray {
        AnalogArray::new(3, 4, &devices::ideal(1000), rng)
    }

    #[test]
    fn starts_at_zero() {
        let mut rng = Rng64::new(1);
        let a = small_array(&mut rng);
        assert_eq!(a.matvec(&[1.0; 4], 0.0), vec![0.0; 3]);
        assert_eq!(a.pulse_count(), 0);
    }

    #[test]
    fn matvec_matches_reference() {
        let mut rng = Rng64::new(2);
        let mut a = small_array(&mut rng);
        a.set_weight(0, 0, 0.5);
        a.set_weight(1, 2, -0.25);
        let y = a.matvec(&[1.0, 0.0, 2.0, 0.0], 0.0);
        assert_eq!(y, vec![0.5, -0.5, 0.0]);
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let mut rng = Rng64::new(3);
        let mut a = small_array(&mut rng);
        a.set_weight(2, 1, 0.7);
        let y = a.matvec_t(&[0.0, 0.0, 1.0], 0.0);
        assert_eq!(y[1], 0.7);
    }

    #[test]
    fn ir_drop_attenuates_far_corner_most() {
        let mut rng = Rng64::new(4);
        let mut a = AnalogArray::new(2, 2, &devices::ideal(1000), &mut rng);
        a.set_weight(0, 0, 1.0);
        a.set_weight(1, 1, 1.0);
        let y = a.matvec(&[1.0, 1.0], 0.2);
        assert!(y[1] < y[0], "far device should see more attenuation: {y:?}");
    }

    #[test]
    fn pulses_move_weight_and_count() {
        let mut rng = Rng64::new(5);
        let mut a = small_array(&mut rng);
        for _ in 0..10 {
            a.pulse(1, 1, PulseDir::Up, &mut rng);
        }
        assert!((a.weight(1, 1) - 0.02).abs() < 1e-5);
        assert_eq!(a.pulse_count(), 10);
    }

    #[test]
    fn set_weight_clamps_to_device_bounds() {
        let mut rng = Rng64::new(6);
        let mut a = small_array(&mut rng);
        a.set_weight(0, 0, 5.0);
        assert_eq!(a.weight(0, 0), 1.0);
    }

    #[test]
    fn defects_freeze_devices() {
        let mut rng = Rng64::new(7);
        let mut a = AnalogArray::new(10, 10, &devices::ideal(1000), &mut rng);
        let hit = a.inject_defects(0.2, DefectMode::StuckAtZero, &mut rng);
        assert_eq!(hit, 20);
        let frozen: Vec<(usize, usize)> = (0..10)
            .flat_map(|r| (0..10).map(move |c| (r, c)))
            .filter(|&(r, c)| !a.device(r, c).responsive)
            .collect();
        assert_eq!(frozen.len(), 20);
        let (r, c) = frozen[0];
        a.pulse(r, c, PulseDir::Up, &mut rng);
        assert_eq!(a.weight(r, c), 0.0);
    }

    #[test]
    fn program_reaches_target_within_tolerance() {
        let mut rng = Rng64::new(8);
        let mut a = small_array(&mut rng);
        let target = Matrix::from_rows(&[
            &[0.3, -0.4, 0.1, 0.0],
            &[-0.8, 0.2, 0.5, -0.1],
            &[0.0, 0.9, -0.9, 0.25],
        ]);
        a.program(&target, 0.005, 2000, &mut rng);
        for r in 0..3 {
            for c in 0..4 {
                assert!(
                    (a.weight(r, c) - target.at(r, c)).abs() <= 0.006,
                    "({r},{c}): {} vs {}",
                    a.weight(r, c),
                    target.at(r, c)
                );
            }
        }
    }

    #[test]
    fn reads_bitwise_match_naive_folds() {
        let (rows, cols) = (30, 26);
        let mut rng = Rng64::new(11);
        let mut a = AnalogArray::new(rows, cols, &devices::ideal(1000), &mut rng);
        let target = Matrix::random_uniform(rows, cols, -0.9, 0.9, &mut rng);
        for r in 0..rows {
            for c in 0..cols {
                a.set_weight(r, c, target.at(r, c));
            }
        }
        let x: Vec<f32> = (0..cols).map(|_| rng.range(-1.0, 1.0) as f32).collect();
        let mut d: Vec<f32> = (0..rows).map(|_| rng.range(-1.0, 1.0) as f32).collect();
        d[3] = 0.0; // exercise the zero-skip path
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ir in [0.0f32, 0.15] {
            // The oracle: one naive fold per output line (at `ir == 0`
            // the attenuation is exactly 1.0, a bitwise no-op factor).
            let atten = |r: usize, c: usize| {
                1.0 - ir * 0.5 * (r as f32 / rows as f32 + c as f32 / cols as f32)
            };
            let y: Vec<f32> = (0..rows)
                .map(|r| (0..cols).fold(0.0, |acc, c| acc + a.weight(r, c) * x[c] * atten(r, c)))
                .collect();
            let yt: Vec<f32> = (0..cols)
                .map(|c| {
                    (0..rows)
                        .filter(|&r| d[r] != 0.0)
                        .fold(0.0, |acc, r| acc + a.weight(r, c) * d[r] * atten(r, c))
                })
                .collect();
            assert_eq!(bits(&a.matvec(&x, ir)), bits(&y), "forward, ir {ir}");
            assert_eq!(bits(&a.matvec_t(&d, ir)), bits(&yt), "transposed, ir {ir}");
        }
    }

    #[test]
    fn converge_to_symmetry_drives_asymmetric_devices() {
        let mut rng = Rng64::new(9);
        let mut a = AnalogArray::new(4, 4, &devices::rram(), &mut rng);
        a.converge_to_symmetry(600, &mut rng);
        let sp = a.symmetry_points();
        for r in 0..4 {
            for c in 0..4 {
                let w = a.weight(r, c);
                let s = sp[r * 4 + c];
                assert!((w - s).abs() < 0.25, "({r},{c}): {w} vs symmetry {s}");
            }
        }
    }
}
