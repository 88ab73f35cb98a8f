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
//! a time runs at that latency, not at memory speed. The way out that
//! keeps every result bit is to leave each chain alone and run several
//! at once:
//!
//! * Within a row nothing moves: every accumulator starts from the
//!   fold's initial value and takes its terms in ascending `k`, a
//!   separate multiply then add, exactly as the one-row loop
//!   ([`vector::dot`], [`vector::dist_l1`], …) does. A row's result
//!   therefore does not depend on which group it fell in, on the row
//!   count, or on the rows around it.
//! * Where the CPU reports AVX-512F, sixteen consecutive rows advance
//!   together, one per lane of a 512-bit register: a 16 × 16 block of
//!   the rows is transposed in registers, so each column is one vector
//!   and each `x[k]` one broadcast shared by all sixteen chains. The
//!   arm is picked at run time, once per scan, as `bits.rs` picks its
//!   arm; the build itself targets baseline x86-64.
//! * Everywhere else, and for the `rows % 16` rows after the last full
//!   group, `SCAN_MR` (4) rows advance together through `k` in the
//!   baseline (SSE2) build; the rows left after that go one at a time.
//!   This path is the reference the sixteen-lane arm is tested against.
//! * A fold may carry more than one accumulator per row (dot and L1
//!   norm, dot and Σw²). They ride the same pass over the row, so the
//!   memory is streamed once however many reductions a score needs.
//!
//! A fold is an initial value and a per-element step, written once over
//! `Lane` so the same source runs on one row (`f32`) and on sixteen
//! (`F32x16`); each public scan below is one fold, and takes a
//! `finish` closure that turns a row's sums into its score (negate, take
//! the root, divide by the norm) while they are still in registers, so
//! no scan needs a second buffer. The one-row [`vector`] functions stay
//! as the definitions the scans are tested against.
//!
//! On the reference host the sixteen-lane arm takes the 65536 × 64
//! X-MANN similarity scan from 35–46 to 22–24 ns per row, against 12 ns
//! for a plain read of the same 16 MiB: the four-row path was bound by
//! its add chains, not by memory. The scans stay on the calling thread;
//! the sixteen-lane scan split across the host's two threads measured
//! no faster than on one.

use crate::matrix::{record_matvec_span, Matrix};
#[cfg(doc)]
use crate::vector;
use std::ops::{Add, Mul, Sub};

/// Rows whose reductions advance together on the baseline path. Four
/// rows of a two-chain fold are eight independent add chains — enough to
/// cover the add latency — and still fit the sixteen SSE registers with
/// the `x` and `w` temporaries.
const SCAN_MR: usize = 4;

/// Lanes of the AVX-512 arm: one 512-bit register of `f32`.
const LANES: usize = 16;

/// The arithmetic a fold step uses, on one row's value (`f32`) or on
/// sixteen rows' ([`F32x16`]). Every operation is the IEEE one, lane by
/// lane, so a step gives each lane the bits it gives the scalar.
pub(crate) trait Lane:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self>
{
    /// `|self|`.
    fn abs(self) -> Self;
    /// [`f32::max`]: a NaN operand yields the other one.
    fn max(self, other: Self) -> Self;
}

impl Lane for f32 {
    #[inline(always)]
    fn abs(self) -> f32 {
        f32::abs(self)
    }
    #[inline(always)]
    fn max(self, other: f32) -> f32 {
        f32::max(self, other)
    }
}

/// Sixteen `f32` lanes as a plain array. Its operations are written lane
/// by lane in safe code; inside a function compiled for AVX-512F each
/// one becomes a single 512-bit instruction.
#[derive(Debug, Clone, Copy)]
#[repr(transparent)]
pub(crate) struct F32x16(pub(crate) [f32; LANES]);

impl F32x16 {
    #[inline(always)]
    pub(crate) fn splat(v: f32) -> Self {
        F32x16([v; LANES])
    }

    #[inline(always)]
    fn zip_map(self, other: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        F32x16(std::array::from_fn(|l| f(self.0[l], other.0[l])))
    }
}

impl Add for F32x16 {
    type Output = F32x16;
    #[inline(always)]
    fn add(self, other: F32x16) -> F32x16 {
        self.zip_map(other, |a, b| a + b)
    }
}

impl Sub for F32x16 {
    type Output = F32x16;
    #[inline(always)]
    fn sub(self, other: F32x16) -> F32x16 {
        self.zip_map(other, |a, b| a - b)
    }
}

impl Mul for F32x16 {
    type Output = F32x16;
    #[inline(always)]
    fn mul(self, other: F32x16) -> F32x16 {
        self.zip_map(other, |a, b| a * b)
    }
}

impl Lane for F32x16 {
    #[inline(always)]
    fn abs(self) -> F32x16 {
        F32x16(self.0.map(f32::abs))
    }
    #[inline(always)]
    fn max(self, other: F32x16) -> F32x16 {
        self.zip_map(other, f32::max)
    }
}

/// A fold's per-row accumulator — one sum or a pair — and its sixteen-row
/// form, lane `l` holding row `l` of the group.
pub(crate) trait Acc: Copy {
    type X16: Copy;
    /// Every lane starts from `self`.
    fn splat(self) -> Self::X16;
    /// Lane `l`'s accumulator.
    fn lane(wide: &Self::X16, l: usize) -> Self;
}

impl Acc for f32 {
    type X16 = F32x16;
    #[inline(always)]
    fn splat(self) -> F32x16 {
        F32x16::splat(self)
    }
    #[inline(always)]
    fn lane(wide: &F32x16, l: usize) -> f32 {
        wide.0[l]
    }
}

impl Acc for (f32, f32) {
    type X16 = (F32x16, F32x16);
    #[inline(always)]
    fn splat(self) -> (F32x16, F32x16) {
        (F32x16::splat(self.0), F32x16::splat(self.1))
    }
    #[inline(always)]
    fn lane(wide: &(F32x16, F32x16), l: usize) -> (f32, f32) {
        (wide.0 .0[l], wide.1 .0[l])
    }
}

/// Reduces every `x.len()`-wide row of the row-major `data` against `x`
/// and writes `finish(acc)` per row into `out`, where `acc` is
/// `step(… step(step(init, x[0], w[0]), x[1], w[1]) …)` over the row's
/// elements `w` in ascending order (the module docs have the rule that
/// makes this bit-identical to the one-row loop). `step` and `step16`
/// are the same fold at the two widths: pass one generic `fn` twice.
///
/// The caller checks `data.len() == out.len() * x.len()`, with `x`
/// non-empty (a `Matrix` has no zero dimension).
#[inline(always)]
pub(crate) fn scan_rows<A: Acc>(
    data: &[f32],
    x: &[f32],
    out: &mut [f32],
    init: A,
    step: impl Fn(A, f32, f32) -> A,
    step16: impl Fn(A::X16, F32x16, F32x16) -> A::X16,
    finish: impl Fn(A) -> f32,
) {
    #[cfg(target_arch = "x86_64")]
    let done = scan_rows_x16(data, x, out, init, step16, &finish).unwrap_or(0);
    #[cfg(not(target_arch = "x86_64"))]
    let done = {
        let _ = step16;
        0
    };
    scan_rows_x4(&data[done * x.len()..], x, &mut out[done..], init, step, finish);
}

/// The baseline path of [`scan_rows`]: `SCAN_MR` rows abreast, then one
/// at a time.
#[inline(always)]
fn scan_rows_x4<A: Copy>(
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

/// The AVX-512F arm of [`scan_rows`]: every full group of sixteen rows,
/// one row per lane. Returns how many rows it wrote (a multiple of 16,
/// from the top), or `None` where the CPU lacks AVX-512F.
///
/// Per group, each 16-column block of the sixteen rows is loaded and
/// transposed in registers, and `step16` takes the block's columns in
/// ascending `k`; a last block narrower than 16 is zero-padded and only
/// its real columns are stepped.
#[cfg(target_arch = "x86_64")]
fn scan_rows_x16<A: Acc>(
    data: &[f32],
    x: &[f32],
    out: &mut [f32],
    init: A,
    step16: impl Fn(A::X16, F32x16, F32x16) -> A::X16,
    finish: &impl Fn(A) -> f32,
) -> Option<usize> {
    #[target_feature(enable = "avx512f")]
    fn scan<A: Acc>(
        data: &[f32],
        x: &[f32],
        out: &mut [f32],
        init: A,
        step16: impl Fn(A::X16, F32x16, F32x16) -> A::X16,
        finish: &impl Fn(A) -> f32,
    ) -> usize {
        let k = x.len();
        let (x_blocks, x_tail) = x.as_chunks::<LANES>();
        let (out_groups, _) = out.as_chunks_mut::<LANES>();
        let groups = out_groups.len();
        for (group, o) in data.chunks_exact(LANES * k).zip(out_groups) {
            let rows: [_; LANES] =
                std::array::from_fn(|r| group[r * k..(r + 1) * k].as_chunks::<LANES>());
            let mut acc = init.splat();
            for (b, xb) in x_blocks.iter().enumerate() {
                let cols = transpose16(rows.map(|(blocks, _)| F32x16(blocks[b])));
                for (&xi, &col) in xb.iter().zip(&cols) {
                    acc = step16(acc, F32x16::splat(xi), col);
                }
            }
            if !x_tail.is_empty() {
                let cols = transpose16(rows.map(|(_, tail)| {
                    let mut block = [0.0; LANES];
                    block[..tail.len()].copy_from_slice(tail);
                    F32x16(block)
                }));
                for (&xi, &col) in x_tail.iter().zip(&cols) {
                    acc = step16(acc, F32x16::splat(xi), col);
                }
            }
            *o = std::array::from_fn(|l| finish(A::lane(&acc, l)));
        }
        groups * LANES
    }
    if !std::arch::is_x86_feature_detected!("avx512f") {
        return None;
    }
    // SAFETY: `scan` needs nothing of its caller but a CPU with AVX-512F,
    // which the line above has just established; its body is safe code.
    Some(unsafe { scan(data, x, out, init, step16, finish) })
}

/// Transposes a 16 × 16 block held as sixteen rows into its sixteen
/// columns, in registers: 32-bit, then 64-bit interleaves within each
/// 128-bit lane, then two rounds of 128-bit lane shuffles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose16(rows: [F32x16; LANES]) -> [F32x16; LANES] {
    use std::arch::x86_64::*;
    // SAFETY: `F32x16` is a `repr(transparent)` `[f32; 16]`, and an
    // `__m512` is sixteen `f32` as well: both are 64 bytes that any bit
    // pattern inhabits, so reinterpreting the array by value is sound.
    let r: [__m512; LANES] = unsafe { std::mem::transmute(rows) };
    let ps = _mm512_castps_pd;
    let pd = _mm512_castpd_ps;
    // t[2i], t[2i+1]: rows 2i and 2i+1 interleaved element by element.
    let t: [__m512; LANES] = std::array::from_fn(|i| {
        let (a, b) = (r[i & !1], r[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_ps(a, b)
        } else {
            _mm512_unpackhi_ps(a, b)
        }
    });
    // u[4i+j]: rows 4i..4i+4 of column j of every 128-bit lane's four.
    let u: [__m512; LANES] = std::array::from_fn(|i| {
        let (base, j) = (i & !3, i & 3);
        let (a, c) = (ps(t[base + (j >> 1)]), ps(t[base + 2 + (j >> 1)]));
        if j % 2 == 0 {
            pd(_mm512_unpacklo_pd(a, c))
        } else {
            pd(_mm512_unpackhi_pd(a, c))
        }
    });
    // v[4l+j]: column 4l+j — 128-bit lane l of u[j], u[4+j], u[8+j] and
    // u[12+j]: lanes 0–1 (`lo`) or 2–3 (`hi`) of each pair, then the even
    // or odd lanes of the two halves.
    let lo = |a: __m512, b: __m512| _mm512_shuffle_f32x4::<0b01_00_01_00>(a, b);
    let hi = |a: __m512, b: __m512| _mm512_shuffle_f32x4::<0b11_10_11_10>(a, b);
    let even = |a: __m512, b: __m512| _mm512_shuffle_f32x4::<0b10_00_10_00>(a, b);
    let odd = |a: __m512, b: __m512| _mm512_shuffle_f32x4::<0b11_01_11_01>(a, b);
    let v: [__m512; LANES] = std::array::from_fn(|i| {
        let (l, j) = (i >> 2, i & 3);
        let (a, b, c, d) = (u[j], u[4 + j], u[8 + j], u[12 + j]);
        let (ab, cd) = if l < 2 { (lo(a, b), lo(c, d)) } else { (hi(a, b), hi(c, d)) };
        if l % 2 == 0 {
            even(ab, cd)
        } else {
            odd(ab, cd)
        }
    });
    // SAFETY: as above, the other way round.
    unsafe { std::mem::transmute(v) }
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
    pub fn scan_matvec_l1(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32, f32) -> f32) {
        self.assert_scan_shape(x, out);
        record_matvec_span(self.rows(), self.cols());
        fn step<V: Lane>((d, n): (V, V), xi: V, w: V) -> (V, V) {
            (d + w * xi, n + w.abs())
        }
        let init = (0.0f32, SUM_START);
        scan_rows(self.as_slice(), x, out, init, step, step, |(d, n)| finish(d, n));
    }

    /// `out[r] = finish(x·w[r], Σₖ w[r][k]²)`: [`vector::dot`] of `x`
    /// with every row and the row's squared L2 norm, in one pass — the
    /// two row reductions behind cosine similarity.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn scan_dot_sq_norm(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32, f32) -> f32) {
        self.assert_scan_shape(x, out);
        fn step<V: Lane>((d, n): (V, V), xi: V, w: V) -> (V, V) {
            (d + xi * w, n + w * w)
        }
        let init = (SUM_START, SUM_START);
        scan_rows(self.as_slice(), x, out, init, step, step, |(d, n)| finish(d, n));
    }

    /// `out[r] = `[`vector::dot`]`(x, w[r])`. Unlike
    /// [`matvec_into`](Matrix::matvec_into) the sum starts where
    /// `Iterator::sum` starts, so a row whose products are all `-0.0`
    /// scores `-0.0` as the one-row function does.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn scan_dot(&self, x: &[f32], out: &mut [f32]) {
        self.assert_scan_shape(x, out);
        fn step<V: Lane>(a: V, xi: V, w: V) -> V {
            a + xi * w
        }
        scan_rows(self.as_slice(), x, out, SUM_START, step, step, |a| a);
    }

    /// `out[r] = finish(`[`vector::dist_l1`]`(x, w[r]))`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn scan_dist_l1(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32) -> f32) {
        self.assert_scan_shape(x, out);
        fn step<V: Lane>(a: V, xi: V, w: V) -> V {
            a + (xi - w).abs()
        }
        scan_rows(self.as_slice(), x, out, SUM_START, step, step, finish);
    }

    /// `out[r] = finish(Σₖ (x[k] − w[r][k])²)` — the squared
    /// [`vector::dist_l2`]; the caller takes the root.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn scan_dist_sq_l2(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32) -> f32) {
        self.assert_scan_shape(x, out);
        fn step<V: Lane>(a: V, xi: V, w: V) -> V {
            a + (xi - w) * (xi - w)
        }
        scan_rows(self.as_slice(), x, out, SUM_START, step, step, finish);
    }

    /// `out[r] = finish(`[`vector::dist_linf`]`(x, w[r]))`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn scan_dist_linf(&self, x: &[f32], out: &mut [f32], finish: impl Fn(f32) -> f32) {
        self.assert_scan_shape(x, out);
        fn step<V: Lane>(m: V, xi: V, w: V) -> V {
            m.max((xi - w).abs())
        }
        scan_rows(self.as_slice(), x, out, 0.0f32, step, step, finish);
    }

    fn assert_scan_shape(&self, x: &[f32], out: &[f32]) {
        assert_eq!(x.len(), self.cols(), "scan query width mismatch");
        assert_eq!(out.len(), self.rows(), "scan output length mismatch");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The row counts and widths the arms are checked on: one row, a
    /// group of 16 and its neighbours, and two groups plus one; widths
    /// either side of one 16-column block and of four.
    pub(crate) const ROW_COUNTS: [usize; 6] = [1, 15, 16, 17, 31, 33];
    pub(crate) const WIDTHS: [usize; 6] = [1, 15, 16, 17, 64, 65];

    /// Mostly ordinary values, with signed zeros, subnormals of both
    /// signs and, more rarely, ±∞ and NaN mixed in — every value class
    /// an IEEE add or multiply treats apart.
    pub(crate) fn edgy(n: usize, seed: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i + 1).wrapping_mul(0x9E37_79B9).wrapping_add(seed.wrapping_mul(7919));
                match (h >> 7) % 512 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3..=20 => 0.0,
                    21..=38 => -0.0,
                    39..=50 => f32::MIN_POSITIVE / 4.0,
                    51..=62 => -f32::MIN_POSITIVE / 3.0,
                    r => (r as f32 - 287.0) / 64.0,
                }
            })
            .collect()
    }

    /// Bits, with every NaN folded to one: payloads are not part of the
    /// contract.
    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    fn matvec_l1<V: Lane>((d, n): (V, V), xi: V, w: V) -> (V, V) {
        (d + w * xi, n + w.abs())
    }

    fn dist_linf<V: Lane>(m: V, xi: V, w: V) -> V {
        m.max((xi - w).abs())
    }

    fn dist_sq_l2<V: Lane>(a: V, xi: V, w: V) -> V {
        a + (xi - w) * (xi - w)
    }

    /// One row at a time, the definition every arm must reproduce.
    fn one_row_at_a_time<A: Copy>(
        data: &[f32],
        x: &[f32],
        init: A,
        step: impl Fn(A, f32, f32) -> A,
        finish: impl Fn(A) -> f32,
    ) -> Vec<f32> {
        let fold = |row: &[f32]| x.iter().zip(row).fold(init, |a, (&xi, &w)| step(a, xi, w));
        data.chunks_exact(x.len()).map(|row| finish(fold(row))).collect()
    }

    /// Runs one fold through the baseline arm, the AVX-512F arm (where
    /// the CPU has it) and the dispatching driver, each against the
    /// one-row loop.
    fn check_arms<A: Acc>(
        what: &str,
        init: A,
        step: impl Fn(A, f32, f32) -> A + Copy,
        step16: impl Fn(A::X16, F32x16, F32x16) -> A::X16 + Copy,
        finish: impl Fn(A) -> f32 + Copy,
    ) {
        for rows in ROW_COUNTS {
            for k in WIDTHS {
                let (data, x) = (edgy(rows * k, rows), edgy(k, k + 1));
                let want = bits(&one_row_at_a_time(&data, &x, init, step, finish));
                let at = format!("{what}, {rows} x {k}");
                let mut got = vec![f32::NAN; rows];
                scan_rows_x4(&data, &x, &mut got, init, step, finish);
                assert_eq!(bits(&got), want, "baseline arm, {at}");
                #[cfg(target_arch = "x86_64")]
                if let Some(done) = scan_rows_x16(&data, &x, &mut got, init, step16, &finish) {
                    assert_eq!(done, rows / LANES * LANES, "{at}");
                    assert_eq!(bits(&got[..done]), want[..done], "AVX-512F arm, {at}");
                }
                got.fill(f32::NAN);
                scan_rows(&data, &x, &mut got, init, step, step16, finish);
                assert_eq!(bits(&got), want, "driver, {at}");
            }
        }
    }

    #[test]
    fn every_row_count_matches_the_one_row_loop_bitwise() {
        check_arms("matvec + l1", (0.0f32, -0.0f32), matvec_l1, matvec_l1, |(d, n)| d / (n + 1e-6));
        check_arms("linf", 0.0f32, dist_linf, dist_linf, |m| m);
        check_arms("sq l2", -0.0f32, dist_sq_l2, dist_sq_l2, f32::sqrt);
    }

    #[test]
    fn accumulators_start_from_init_not_from_zero() {
        // Every product is -0.0, so a sum keeps the sign of its start
        // value: +0.0 from +0.0, -0.0 from -0.0 — in a group of sixteen,
        // a group of four and the remainder alike, for a lone sum and
        // for both sums of a pair.
        fn dot<V: Lane>(a: V, xi: V, w: V) -> V {
            a + xi * w
        }
        fn dot_pair<V: Lane>((d, e): (V, V), xi: V, w: V) -> (V, V) {
            (d + xi * w, e + w * xi)
        }
        const ROWS: usize = LANES + SCAN_MR + 1;
        let (x, data) = ([1.0f32, 1.0], [-0.0f32; 2 * ROWS]);
        for init in [0.0f32, -0.0] {
            let mut out = [f32::NAN; ROWS];
            scan_rows(&data, &x, &mut out, init, dot, dot, |a| a);
            assert!(out.iter().all(|o| o.to_bits() == init.to_bits()), "{init:?} -> {out:?}");
            for pick in [|(d, _): (f32, f32)| d, |(_, e): (f32, f32)| e] {
                scan_rows(&data, &x, &mut out, (init, init), dot_pair, dot_pair, pick);
                assert!(out.iter().all(|o| o.to_bits() == init.to_bits()), "{init:?} -> {out:?}");
            }
        }
    }
}
