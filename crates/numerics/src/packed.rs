//! Weights that are programmed once and read for the rest of a run,
//! held in the layout their reads want.
//!
//! A serving lane, an LSH encoder and a frozen DLRM stack never write
//! their weights after construction, and every read is a matvec on a
//! matrix of a few hundred entries. On a row-major [`Matrix`] such a
//! read is latency-bound: `scan_rows` runs four scalar add chains
//! abreast, one multiply–add per cycle. [`PackedMatvec`] stores the same
//! weights as `Wᵀ` in k-major strips of eight outputs (the strip
//! holding output rows `8s..8s+8` keeps, for each `k`, their eight
//! `w[r][k]` side by side; lanes past the last row hold `0.0` and are
//! never stored), so one load brings the next term of eight chains and
//! the chains fill SIMD lanes instead of a pipeline.
//!
//! # The chain contract
//!
//! Every kernel here writes, per output, the chain
//! [`Matrix::matvec_into`] writes: start at `+0.0`, then `a + w[r][k]·x[k]`
//! for ascending `k`, a separate multiply and add (no FMA), no zero
//! skip — `0 × ∞` is NaN. Packing copies values verbatim. So a packed
//! read is bit-identical to the row-major read it replaces (NaN payloads
//! aside, which are the instruction selector's choice), whatever the
//! shape, the batch size or the lane an output falls in, and books the
//! same `numerics/matvec` span per input.
//!
//! Two kernels share the one layout:
//!
//! * **one input, outputs abreast** ([`PackedMatvec::matvec_into`]): up
//!   to four strips — 32 accumulators, SSE2's eight vectors and
//!   enough independent adds to cover their latency — advance together
//!   through `k`, each `x[k]` broadcast once;
//! * **inputs abreast** ([`PackedMatvec::matvec_batch_into`]): a
//!   `BATCH_MR × LANES` register tile, the fold `matmul` runs
//!   (`tile_fold`), reuses each packed weight across four inputs; the
//!   `b % 4` inputs left over go through the one-input kernel.
//!
//! Each has a *bias form* for `W · [x; 1]`, the product every
//! `LinearBackend` defines: `x` is one short of `cols` and the last
//! column is driven by a constant 1 as the chain's final step, so no
//! caller builds an augmented copy of its input.

use crate::matrix::{record_matvec_span, tile_fold, Matrix};

/// Outputs per packed strip: two SSE2 vectors.
const LANES: usize = 8;

/// Strips the one-input kernel advances together. Four strips are 32
/// accumulators — eight vectors, leaving SSE2's other eight for the
/// broadcast input and the weight loads — and eight independent add
/// chains, which covers the add latency at two adds per cycle.
const ABREAST: usize = 4;

/// Inputs per register tile of the batch kernel. Its fold has no
/// branch, so the whole tile must stay in registers: eight accumulator
/// vectors, two for the weight strip and a broadcast fit SSE2's sixteen
/// (12–13 GMAC/s on the reference host); eight-input tiles spill.
const BATCH_MR: usize = 4;

/// The constant input that drives the bias column.
const ONE: [f32; 1] = [1.0];

/// The one-input fold: for each `k`, `acc[s][j] += strips[s][k][j] · x[k]`
/// — per accumulator one ascending-`k` chain. The tile goes in and out
/// by value so it lives in registers in between.
#[inline(always)]
fn fold_abreast<const S: usize>(
    strips: [&[[f32; LANES]]; S],
    x: &[f32],
    mut acc: [[f32; LANES]; S],
) -> [[f32; LANES]; S] {
    // One length for every operand, so the `k` index needs no check.
    let strips = strips.map(|s| &s[..x.len()]);
    for (k, &xk) in x.iter().enumerate() {
        for (a, s) in acc.iter_mut().zip(strips) {
            for (a, w) in a.iter_mut().zip(&s[k]) {
                *a += w * xk;
            }
        }
    }
    acc
}

/// A matrix packed for reading: built once from a [`Matrix`], never
/// written again (there is no mutable access), read through the kernels
/// the [module docs](self) describe.
///
/// # Example
///
/// ```
/// use enw_numerics::matrix::Matrix;
/// use enw_numerics::packed::PackedMatvec;
///
/// let w = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[3.0, 4.0, -1.0]]);
/// let packed = PackedMatvec::pack(&w);
/// let mut y = [0.0f32; 2];
/// packed.matvec_into(&[1.0, 1.0, 1.0], &mut y);
/// assert_eq!(y, [3.5, 6.0]);
/// packed.matvec_bias_into(&[1.0, 1.0], &mut y); // W · [x; 1]
/// assert_eq!(y, [3.5, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatvec {
    rows: usize,
    cols: usize,
    /// `rows.div_ceil(LANES)` strips of `cols × LANES`, k-major.
    strips: Vec<f32>,
}

impl PackedMatvec {
    /// Packs `w` (values copied verbatim).
    pub fn pack(w: &Matrix) -> Self {
        let (rows, cols) = (w.rows(), w.cols());
        let strip_len = cols * LANES;
        let mut strips = vec![0.0f32; rows.div_ceil(LANES) * strip_len];
        for (strip, wrows) in strips.chunks_exact_mut(strip_len).zip(w.as_slice().chunks(strip_len))
        {
            for (lane, wrow) in wrows.chunks_exact(cols).enumerate() {
                for (dst, &v) in strip.iter_mut().skip(lane).step_by(LANES).zip(wrow) {
                    *dst = v;
                }
            }
        }
        PackedMatvec { rows, cols, strips }
    }

    /// Output count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input count, the bias column included where there is one.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row-major matrix this was packed from, read back exactly.
    pub fn to_matrix(&self) -> Matrix {
        let mut w = Matrix::zeros(self.rows, self.cols);
        let strip_len = self.cols * LANES;
        let wrows = w.as_mut_slice().chunks_mut(strip_len);
        for (strip, wrows) in self.strips.chunks_exact(strip_len).zip(wrows) {
            for (lane, wrow) in wrows.chunks_exact_mut(self.cols).enumerate() {
                for (dst, &v) in wrow.iter_mut().zip(strip.iter().skip(lane).step_by(LANES)) {
                    *dst = v;
                }
            }
        }
        w
    }

    /// `y = W · x`, bit for bit [`Matrix::matvec_into`] (`y` is fully
    /// overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        self.read_one(x, y);
    }

    /// `y = W · [x; 1]` without building `[x; 1]`: bit for bit
    /// [`Matrix::matvec_into`] on the augmented input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() + 1 != cols` or `y.len() != rows`.
    pub fn matvec_bias_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len() + 1, self.cols, "input dimension mismatch");
        self.read_one(x, y);
    }

    /// [`matvec_into`](PackedMatvec::matvec_into) for `b` inputs at
    /// once: `xs` is `b × cols` row-major (one input per row), `out` is
    /// `b × rows`, fully overwritten with `out[q] = W · xs[q]`; one
    /// `numerics/matvec` span is booked per input, so a batch reads in a
    /// trace as the `b` calls it replaces.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of `rows` or
    /// `xs.len() != (out.len() / rows) * cols`.
    pub fn matvec_batch_into(&self, xs: &[f32], out: &mut [f32]) {
        self.read_batch(xs, self.cols, out);
    }

    /// [`matvec_bias_into`](PackedMatvec::matvec_bias_into) for `b`
    /// inputs at once: `xs` is `b × (cols − 1)`, `out` is `b × rows`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of `rows` or
    /// `xs.len() != (out.len() / rows) * (cols - 1)`.
    pub fn matvec_bias_batch_into(&self, xs: &[f32], out: &mut [f32]) {
        self.read_batch(xs, self.cols - 1, out);
    }

    /// One input against every strip; `x` covers all of `cols` or all
    /// but the bias column, which [`ONE`] then drives.
    #[inline(always)]
    fn read_one(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        record_matvec_span(self.rows, self.cols);
        let strip_len = self.cols * LANES;
        let mut strips = self.strips.as_slice();
        for out in y.chunks_mut(ABREAST * LANES) {
            // Strips from outputs, not from lengths: no division.
            let abreast = out.len().div_ceil(LANES);
            let (block, rest) = strips.split_at(abreast * strip_len);
            strips = rest;
            match abreast {
                1 => self.read_block::<1>(block, x, out),
                2 => self.read_block::<2>(block, x, out),
                3 => self.read_block::<3>(block, x, out),
                _ => self.read_block::<ABREAST>(block, x, out),
            }
        }
    }

    /// `S` strips abreast from `+0.0` through `x`, then the bias step
    /// if `x` stops short of it; only real outputs are stored.
    #[inline(always)]
    fn read_block<const S: usize>(&self, block: &[f32], x: &[f32], out: &mut [f32]) {
        let (steps, _) = block.as_chunks::<LANES>();
        let strips: [&[[f32; LANES]]; S] =
            std::array::from_fn(|s| &steps[s * self.cols..(s + 1) * self.cols]);
        let acc = fold_abreast(strips, x, [[0.0f32; LANES]; S]);
        let bias = &ONE[..self.cols - x.len()];
        let acc = fold_abreast(strips.map(|s| &s[x.len()..]), bias, acc);
        out.copy_from_slice(&acc.as_flattened()[..out.len()]);
    }

    /// `out.len() / rows` inputs of `x_cols` elements each: four to a
    /// register tile, the rest one by one with their outputs abreast.
    #[inline(always)]
    fn read_batch(&self, xs: &[f32], x_cols: usize, out: &mut [f32]) {
        let rows = self.rows;
        assert_eq!(out.len() % rows, 0, "matvec batch output is not whole rows");
        assert_eq!(xs.len(), out.len() / rows * x_cols, "matvec batch input dimension mismatch");
        let mut out_tiles = out.chunks_exact_mut(BATCH_MR * rows);
        // Inputs by index: `chunks_exact` rejects the zero width a lone
        // bias column has.
        let mut q = 0;
        for o in out_tiles.by_ref() {
            for _ in 0..BATCH_MR {
                record_matvec_span(rows, self.cols);
            }
            self.batch_tile(&xs[q * x_cols..(q + BATCH_MR) * x_cols], o);
            q += BATCH_MR;
        }
        for o in out_tiles.into_remainder().chunks_exact_mut(rows) {
            self.read_one(&xs[q * x_cols..(q + 1) * x_cols], o);
            q += 1;
        }
    }

    /// `BATCH_MR` inputs against every strip: `x` is the input rows back
    /// to back, `out` their output rows.
    #[inline(always)]
    fn batch_tile(&self, x: &[f32], out: &mut [f32]) {
        const M: usize = BATCH_MR;
        let (x_cols, rows) = (x.len() / M, self.rows);
        let x_rows: [&[f32]; M] = std::array::from_fn(|m| &x[m * x_cols..(m + 1) * x_cols]);
        let bias = [&ONE[..self.cols - x_cols]; M];
        for (s, strip) in self.strips.chunks_exact(self.cols * LANES).enumerate() {
            let (body, last) = strip.split_at(x_cols * LANES);
            let acc = tile_fold::<M, LANES, false>(x_rows, body, [[0.0f32; LANES]; M]);
            let acc = tile_fold::<M, LANES, false>(bias, last, acc);
            let (lo, hi) = (s * LANES, rows.min((s + 1) * LANES));
            for (out_row, acc_row) in out.chunks_exact_mut(rows).zip(&acc) {
                out_row[lo..hi].copy_from_slice(&acc_row[..hi - lo]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Bit patterns with every NaN folded onto one: which operand's
    /// payload a NaN result carries is the instruction selector's
    /// choice, not part of the chain.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// `W · x` and `W · [x[..cols − 1]; 1]` by the row-major definition.
    fn row_major(w: &Matrix, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut augmented = x.to_vec();
        if let Some(last) = augmented.last_mut() {
            *last = 1.0;
        }
        (w.matvec(x), w.matvec(&augmented))
    }

    const ROWS: [usize; 10] = [1, 7, 8, 9, 10, 16, 32, 33, 64, 130];
    const COLS: [usize; 5] = [1, 5, 16, 17, 65];

    #[test]
    fn one_input_reads_match_matvec_into_bitwise_on_every_shape() {
        // Row counts on both sides of a strip and of a four-strip block,
        // column counts down to a lone bias column.
        let mut rng = Rng64::new(31);
        for rows in ROWS {
            for cols in COLS {
                let w = Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng);
                let packed = PackedMatvec::pack(&w);
                assert_eq!(packed.to_matrix(), w, "{rows}x{cols} round trip");
                let x: Vec<f32> = (0..cols).map(|_| rng.uniform_f32() - 0.5).collect();
                let (want, want_bias) = row_major(&w, &x);
                let mut got = vec![f32::NAN; rows];
                packed.matvec_into(&x, &mut got);
                assert_eq!(bits(&got), bits(&want), "{rows}x{cols}");
                got.fill(f32::NAN);
                packed.matvec_bias_into(&x[..cols - 1], &mut got);
                assert_eq!(bits(&got), bits(&want_bias), "{rows}x{cols}, bias form");
            }
        }
    }

    #[test]
    fn batch_reads_match_one_input_reads_bitwise_on_every_shape() {
        let mut rng = Rng64::new(32);
        for rows in ROWS {
            for cols in COLS {
                let packed =
                    PackedMatvec::pack(&Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng));
                for b in [0usize, 1, 3, 4, 5, 9] {
                    let xs: Vec<f32> = (0..b * cols).map(|_| rng.uniform_f32() - 0.5).collect();
                    let (mut want, mut got) = (vec![f32::NAN; b * rows], vec![f32::NAN; b * rows]);
                    for (x, y) in xs.chunks_exact(cols).zip(want.chunks_exact_mut(rows)) {
                        packed.matvec_into(x, y);
                    }
                    packed.matvec_batch_into(&xs, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{rows}x{cols}, b = {b}");
                    // The bias form reads one element fewer per input.
                    let xs = &xs[..b * (cols - 1)];
                    for (q, y) in want.chunks_exact_mut(rows).enumerate() {
                        packed.matvec_bias_into(&xs[q * (cols - 1)..(q + 1) * (cols - 1)], y);
                    }
                    got.fill(f32::NAN);
                    packed.matvec_bias_batch_into(xs, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{rows}x{cols}, b = {b}, bias form");
                }
            }
        }
    }

    #[test]
    fn one_input_reads_keep_every_term_of_the_chain() {
        // Signed zeros, subnormals, infinities and NaN in both operands:
        // a dropped `0 × inf` term, a reordered chain, a fused
        // multiply-add or an accumulator that starts at -0.0 all show in
        // the bits.
        const AWKWARD: [f32; 10] = [
            0.0,
            -0.0,
            1.0e-40,
            -3.0e-45,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -1.0,
        ];
        let mut rng = Rng64::new(33);
        let mut draw = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| match rng.below(3) {
                    0 => AWKWARD[rng.below(AWKWARD.len())],
                    _ => rng.uniform_f32() - 0.5,
                })
                .collect()
        };
        let (mut nans, mut finite) = (0, 0);
        for (rows, cols) in [(10, 6), (1, 3), (33, 2), (40, 17)] {
            let w = Matrix::from_vec(rows, cols, draw(rows * cols));
            let packed = PackedMatvec::pack(&w);
            for _ in 0..8 {
                let x = draw(cols);
                let (want, want_bias) = row_major(&w, &x);
                nans += want.iter().filter(|v| v.is_nan()).count();
                finite += want.iter().filter(|v| v.is_finite()).count();
                let mut got = vec![f32::NAN; rows];
                packed.matvec_into(&x, &mut got);
                assert_eq!(bits(&got), bits(&want), "{rows}x{cols}");
                packed.matvec_bias_into(&x[..cols - 1], &mut got);
                assert_eq!(bits(&got), bits(&want_bias), "{rows}x{cols}, bias form");
            }
        }
        assert!(nans > 50 && finite > 50, "{nans} NaN and {finite} finite outputs");
        // The case that rules out a zero skip: 0 · inf is NaN, not 0 —
        // in the body of the chain and in front of the bias step.
        let packed = PackedMatvec::pack(&Matrix::from_rows(&[&[f32::INFINITY, 1.0]]));
        let mut got = [0.0f32];
        packed.matvec_into(&[0.0, 1.0], &mut got);
        assert!(got[0].is_nan(), "{got:?}");
        packed.matvec_bias_into(&[-0.0], &mut got);
        assert!(got[0].is_nan(), "{got:?}");
        // All-(-0.0) products sum to +0.0: the chain starts at +0.0.
        let packed = PackedMatvec::pack(&Matrix::from_rows(&[&[-0.0, -0.0]]));
        packed.matvec_into(&[1.0, 1.0], &mut got);
        assert_eq!(got[0].to_bits(), 0.0f32.to_bits());
        packed.matvec_bias_into(&[1.0], &mut got);
        assert_eq!(got[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn the_bias_form_rejects_a_full_width_input() {
        let packed = PackedMatvec::pack(&Matrix::zeros(2, 3));
        packed.matvec_bias_into(&[0.0; 3], &mut [0.0; 2]);
    }
}
