//! Rows-abreast row reductions: the scan driver under
//! [`Matrix::matvec_into`] and the `Matrix::scan_*` memory scans defined
//! here, which X-MANN similarity and the `enw-mann` similarity scans run
//! on.
//!
//! # Rows abreast, chain order untouched
//!
//! A row reduction such as `Σₖ w[k]·x[k]` is one dependent chain of
//! float adds: without reassociation (which would change the bits) a
//! 64-element row costs 64 add latencies, and a scan written one row at
//! a time runs at that latency, not at memory speed — the 65536 × 64
//! X-MANN similarity scan measured 4.3 GB/s on a host whose soft read
//! streams the same bytes at 17 GB/s. The way out that keeps every
//! result bit is to leave each chain alone and run several at once:
//!
//! * `SCAN_MR` (4) consecutive rows advance together through `k`; their
//!   chains are independent, so they overlap in the pipeline, and each
//!   `x[k]` load is shared by all of them. The `rows % SCAN_MR` rows
//!   left over go one at a time.
//! * Within a row nothing moves: every accumulator starts from the
//!   fold's initial value and takes its terms in ascending `k`, exactly
//!   as the one-row loop ([`vector::dot`], [`vector::dist_l1`], …) does.
//!   A row's result therefore does not depend on which group it fell
//!   in, on the row count, or on the rows around it.
//! * A fold may carry more than one accumulator per row (dot and L1
//!   norm, dot and Σw²). They ride the same pass over the row, so the
//!   memory is streamed once however many reductions a score needs.
//!
//! A fold is an initial value and a per-element step; each public scan
//! below is one fold, and takes a `finish` closure that turns a row's
//! sums into its score (negate, take the root, divide by the norm)
//! while they are still in registers, so no scan needs a second buffer.
//! The one-row [`vector`] functions stay as the definitions the scans
//! are tested against.
//!
//! The scans stay on the calling thread. One thread already saturates
//! the reference host's memory bandwidth — the fused 65536 × 64
//! similarity scan split in halves across its two threads measured
//! 1.55 → 1.75 ms — so the lever is passes and chain latency, not
//! threads.

use crate::matrix::{record_matvec_span, Matrix};
#[cfg(doc)]
use crate::vector;

/// Rows whose reductions advance together. Four rows of a two-chain
/// fold are eight independent add chains — enough to cover the add
/// latency — and still fit the sixteen SSE registers with the `x` and
/// `w` temporaries.
const SCAN_MR: usize = 4;

/// Reduces every `x.len()`-wide row of the row-major `data` against `x`
/// and writes `finish(acc)` per row into `out`, where `acc` is
/// `step(… step(step(init, x[0], w[0]), x[1], w[1]) …)` over the row's
/// elements `w` in ascending order (the module docs have the rule that
/// makes this bit-identical to the one-row loop).
///
/// The caller checks `data.len() == out.len() * x.len()`, with `x`
/// non-empty (a `Matrix` has no zero dimension).
#[inline(always)]
pub(crate) fn scan_rows<A: Copy>(
    data: &[f32],
    x: &[f32],
    out: &mut [f32],
    init: A,
    step: impl Fn(A, f32, f32) -> A,
    finish: impl Fn(A) -> f32,
) {
    let k = x.len();
    debug_assert_eq!(data.len(), out.len() * k, "scan shape mismatch");
    let mut groups = data.chunks_exact(SCAN_MR * k);
    let (out_groups, out_rest) = out.as_chunks_mut::<SCAN_MR>();
    for (group, o) in groups.by_ref().zip(out_groups) {
        let (r0, rest) = group.split_at(k);
        let (r1, rest) = rest.split_at(k);
        let (r2, r3) = rest.split_at(k);
        let (mut a0, mut a1, mut a2, mut a3) = (init, init, init, init);
        for ((((&xi, &w0), &w1), &w2), &w3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            a0 = step(a0, xi, w0);
            a1 = step(a1, xi, w1);
            a2 = step(a2, xi, w2);
            a3 = step(a3, xi, w3);
        }
        *o = [finish(a0), finish(a1), finish(a2), finish(a3)];
    }
    for (row, o) in groups.remainder().chunks_exact(k).zip(out_rest) {
        *o = finish(x.iter().zip(row).fold(init, |a, (&xi, &w)| step(a, xi, w)));
    }
}

/// Where `Iterator::sum::<f32>()` starts (`-0.0`, the additive identity
/// that leaves a `-0.0` total alone). The scans that stand in for the
/// one-row [`vector`] functions start here so their bits match.
const SUM_START: f32 = -0.0;

impl Matrix {
    /// [`matvec_into`](Matrix::matvec_into) and every row's L1 norm in
    /// the same pass over the matrix: `out[r] = finish(w[r]·x, Σₖ|w[r][k]|)`.
    /// The dot product is `matvec_into`'s, bit for bit, and the call
    /// books the same `numerics/matvec` span; the norm is
    /// [`vector::norm_l1`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    // enw:hot
    pub fn scan_matvec_l1(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32, f32) -> f32) {
        self.assert_scan_shape(x, out);
        record_matvec_span(self.rows(), self.cols());
        let step = |(d, n): (f32, f32), xi: f32, w: f32| (d + w * xi, n + w.abs());
        scan_rows(self.as_slice(), x, out, (0.0f32, SUM_START), step, |(d, n)| finish(d, n));
    }

    /// `out[r] = finish(x·w[r], Σₖ w[r][k]²)`: [`vector::dot`] of `x`
    /// with every row and the row's squared L2 norm, in one pass — the
    /// two row reductions behind cosine similarity.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    // enw:hot
    pub fn scan_dot_sq_norm(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32, f32) -> f32) {
        self.assert_scan_shape(x, out);
        let step = |(d, n): (f32, f32), xi: f32, w: f32| (d + xi * w, n + w * w);
        scan_rows(self.as_slice(), x, out, (SUM_START, SUM_START), step, |(d, n)| finish(d, n));
    }

    /// `out[r] = `[`vector::dot`]`(x, w[r])`. Unlike
    /// [`matvec_into`](Matrix::matvec_into) the sum starts where
    /// `Iterator::sum` starts, so a row whose products are all `-0.0`
    /// scores `-0.0` as the one-row function does.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    // enw:hot
    pub fn scan_dot(&self, x: &[f32], out: &mut [f32]) {
        self.assert_scan_shape(x, out);
        scan_rows(self.as_slice(), x, out, SUM_START, |a, xi, w| a + xi * w, |a| a);
    }

    /// `out[r] = finish(`[`vector::dist_l1`]`(x, w[r]))`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    // enw:hot
    pub fn scan_dist_l1(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32) -> f32) {
        self.assert_scan_shape(x, out);
        scan_rows(self.as_slice(), x, out, SUM_START, |a, xi, w| a + (xi - w).abs(), finish);
    }

    /// `out[r] = finish(Σₖ (x[k] − w[r][k])²)` — the squared
    /// [`vector::dist_l2`]; the caller takes the root.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    // enw:hot
    pub fn scan_dist_sq_l2(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32) -> f32) {
        self.assert_scan_shape(x, out);
        scan_rows(self.as_slice(), x, out, SUM_START, |a, xi, w| a + (xi - w) * (xi - w), finish);
    }

    /// `out[r] = finish(`[`vector::dist_linf`]`(x, w[r]))`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    // enw:hot
    pub fn scan_dist_linf(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32) -> f32) {
        self.assert_scan_shape(x, out);
        scan_rows(self.as_slice(), x, out, 0.0f32, |m, xi, w| m.max((xi - w).abs()), finish);
    }

    fn assert_scan_shape(&self, x: &[f32], out: &[f32]) {
        assert_eq!(x.len(), self.cols(), "scan query width mismatch");
        assert_eq!(out.len(), self.rows(), "scan output length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row at a time, the definition the driver must reproduce.
    fn one_row_at_a_time(data: &[f32], x: &[f32], out: &mut [f32]) {
        for (row, o) in data.chunks_exact(x.len()).zip(out) {
            let mut acc = (0.0f32, -0.0f32);
            for (&xi, &w) in x.iter().zip(row) {
                acc = (acc.0 + w * xi, acc.1 + w.abs());
            }
            *o = acc.0 / (acc.1 + 1e-6);
        }
    }

    #[test]
    fn every_row_count_matches_the_one_row_loop_bitwise() {
        let k = 5;
        let x: Vec<f32> = (0..k).map(|i| 0.3 * i as f32 - 0.7).collect();
        for rows in (0..=2 * SCAN_MR + 1).chain([33]) {
            let data: Vec<f32> =
                (0..rows * k).map(|i| ((i * 37 % 19) as f32 - 9.0) / 8.0).collect();
            let mut want = vec![f32::NAN; rows];
            one_row_at_a_time(&data, &x, &mut want);
            let mut got = vec![f32::NAN; rows];
            scan_rows(
                &data,
                &x,
                &mut got,
                (0.0f32, -0.0f32),
                |(d, n), xi, w| (d + w * xi, n + w.abs()),
                |(d, n)| d / (n + 1e-6),
            );
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "rows = {rows}");
        }
    }

    #[test]
    fn accumulators_start_from_init_not_from_zero() {
        // Every product is -0.0, so the sum keeps the sign of its start
        // value: +0.0 from +0.0, -0.0 from -0.0 — in a full group and in
        // the remainder alike.
        let (x, data) = ([1.0f32, 1.0], [-0.0f32; 2 * (SCAN_MR + 1)]);
        for init in [0.0f32, -0.0] {
            let mut out = [f32::NAN; SCAN_MR + 1];
            scan_rows(&data, &x, &mut out, init, |a, xi, w| a + xi * w, |a| a);
            assert!(out.iter().all(|o| o.to_bits() == init.to_bits()), "{init:?} -> {out:?}");
        }
    }
}
