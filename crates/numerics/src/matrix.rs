//! Row-major dense matrices and the kernels analog/digital NN simulation
//! needs: matrix–vector products (forward pass), transposed products
//! (backward pass), rank-1 outer-product updates (weight update), and full
//! matrix multiplication.
//!
//! # Kernel variants and bit-determinism
//!
//! Every kernel has **one entry point**, and the kernel — not its
//! caller — picks what runs behind it. [`Matrix::matmul_into`] picks
//! from the problem shape: the naive `(i, k, j)` triple loop for small
//! or very narrow products, and above that a cache-blocked,
//! register-tiled kernel. Both accumulate each output element's terms
//! in ascending-`k` order under the same
//! [zero-coefficient skip](#zero-skip-fast-path) rule, so the result is
//! **bitwise identical** whichever runs. `matvec` and the `scan_*`
//! memory scans run rows abreast on the driver in `scan.rs`, 16 rows
//! abreast where the CPU reports AVX-512F and 4 on the baseline SSE2
//! path, and `matvec_t` holds up to 64 columns' sums in AVX-512
//! registers across the rows where it can: each picks its arm from the
//! CPU at run time, with every chain untouched, so again bitwise equal
//! to the one-row loop. Every kernel stays on the calling thread; a
//! second thread measured no faster on these. A matrix that is
//! written once and then only read is better held as a
//! [`PackedMatvec`](crate::packed::PackedMatvec): the same chains, run
//! outputs abreast for one input and, for a batch, inputs abreast
//! through the register tile `matmul` uses (`tile_fold`).
//!
//! # Zero-skip fast path
//!
//! `matvec_t`, `rank1_update`, and `matmul` skip terms whose
//! *coefficient* (`d[r]` or `a[i][k]`) is exactly `±0.0` instead of
//! multiplying by it. This is a deliberate, shared semantic, not just an
//! optimization: a skipped term contributes nothing even when the other
//! operand is non-finite (`0.0 × ∞` would otherwise inject a `NaN`), so
//! sparse gradients cannot resurrect `Inf`/`NaN` garbage stored in
//! masked-out weights. Every kernel shares the rule through
//! `skip_zero_coeff`, which is what keeps the naive and blocked
//! `matmul` paths bit-identical on inputs containing zeros. `matvec` and
//! the packed reads have no coefficient side and skip nothing: there
//! `0.0 × ∞` is the NaN IEEE says it is.

use crate::rng::Rng64;
#[cfg(target_arch = "x86_64")]
use crate::scan::F32x16;
use crate::scan::{scan_rows, Lane};

/// The shared zero-coefficient skip rule (see the module docs): a term
/// is dropped when its coefficient is exactly `±0.0`. Every product
/// kernel in this module must consult this predicate so the `matmul`
/// variants stay bit-identical.
#[inline(always)]
fn skip_zero_coeff(a: f32) -> bool {
    a == 0.0
}

/// `out[j] += a · b[j]` over one row window, in ascending-`j` order.
#[inline(always)]
fn axpy_row(out: &mut [f32], a: f32, b: &[f32]) {
    for (o, bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// The baseline path of [`Matrix::matvec_t_into`] over the columns
/// `from..` of `y` (zeroed by the caller): `y[j] += d[r] · w[r][j]` for
/// every row whose `d[r]` the [zero-skip rule](skip_zero_coeff) keeps,
/// rows in ascending order. Every column is one chain in row order, and
/// the [AVX-512F arm](matvec_t_x16) is tested against this loop.
fn matvec_t_columns(data: &[f32], d: &[f32], y: &mut [f32], from: usize) {
    let cols = y.len();
    if from == cols {
        return;
    }
    for (&di, row) in d.iter().zip(data.chunks_exact(cols)) {
        if skip_zero_coeff(di) {
            continue;
        }
        axpy_row(&mut y[from..], di, &row[from..]);
    }
}

/// The AVX-512F arm of [`Matrix::matvec_t_into`]: the columns of `y`
/// (zeroed by the caller) in panels of up to four 16-lane registers,
/// each panel's sums held in registers across every row, so a row costs
/// its loads and one multiply and add per register instead of a load
/// and a store of `y` per column. Each column keeps its chain: row
/// order, the same zero skip, a separate multiply then add. Returns how
/// many leading columns it wrote (the `cols % 16` after them are left to
/// [`matvec_t_columns`]), or `None` where the CPU lacks AVX-512F.
#[cfg(target_arch = "x86_64")]
fn matvec_t_x16(data: &[f32], d: &[f32], y: &mut [f32]) -> Option<usize> {
    #[target_feature(enable = "avx512f")]
    fn panel<const N: usize>(data: &[f32], d: &[f32], y: &mut [f32], at: usize) -> usize {
        let cols = y.len();
        let mut acc = [F32x16::splat(0.0); N];
        for (&di, row) in d.iter().zip(data.chunks_exact(cols)) {
            if skip_zero_coeff(di) {
                continue;
            }
            let di = F32x16::splat(di);
            let (ws, _) = row[at..at + 16 * N].as_chunks::<16>();
            for (a, &w) in acc.iter_mut().zip(ws) {
                *a = *a + di * F32x16(w);
            }
        }
        for (yc, a) in y[at..at + 16 * N].chunks_exact_mut(16).zip(acc) {
            yc.copy_from_slice(&a.0);
        }
        16 * N
    }
    #[target_feature(enable = "avx512f")]
    fn run(data: &[f32], d: &[f32], y: &mut [f32]) -> usize {
        let mut at = 0;
        while y.len() - at >= 16 {
            at += match (y.len() - at) / 16 {
                1 => panel::<1>(data, d, y, at),
                2 => panel::<2>(data, d, y, at),
                3 => panel::<3>(data, d, y, at),
                _ => panel::<4>(data, d, y, at),
            };
        }
        at
    }
    if !std::arch::is_x86_feature_detected!("avx512f") {
        return None;
    }
    // SAFETY: `run` needs nothing of its caller but a CPU with AVX-512F,
    // which the line above has just established; its body is safe code.
    Some(unsafe { run(data, d, y) })
}

/// Cache-block sizes for the blocked `matmul` kernel: `MATMUL_KC` rows
/// of `B` (one k-panel) by `MATMUL_NC` columns (one j-panel) are walked
/// per tile, keeping the panel resident in L1/L2 while every output row
/// in flight reuses it. Re-measured after the per-worker panel packing
/// landed: 256×256, 64×1024 and 256×512 all sit within ~3% of 128×512
/// at n = 1024 (inside host timing noise), so the original choice stands.
const MATMUL_KC: usize = 128;
const MATMUL_NC: usize = 512;

/// Register-tile shape of the matmul microkernel: `MATMUL_MR` output
/// rows × `MATMUL_NR` output columns are accumulated in locals across a
/// whole k-panel, so each `B` row load feeds `MATMUL_MR` rows' multiply–
/// adds and the output is touched once per panel instead of once per
/// `k` step; the fixed-size inner loops are what lets the autovectorizer
/// emit packed mul + add without a gather. On the default x86-64 build
/// (SSE2: four lanes, sixteen registers) the 4×16 tile is sixteen
/// vectors — every register, not the eight of an AVX2 build. The skip
/// branch turns each row's update into its own short loop, which keeps
/// that affordable: 4×8 measured the same 35–39 GFLOP/s at n = 512.
const MATMUL_MR: usize = 4;
const MATMUL_NR: usize = 16;

/// The register-tile fold both product kernels run: for each `k` of a
/// k-major `panel` (`N` values per step) and each of the `M` coefficient
/// rows, `acc[m][j] += coeff[m][k] · panel[k][j]` — per accumulator one
/// ascending-`k` chain, the order every kernel in this module promises.
/// `SKIP` compiles the [zero-skip rule](skip_zero_coeff) in (`matmul`)
/// or out (the packed batch read, whose definition is `matvec_into`).
/// The tile goes in and out by value so it lives in registers in between.
#[inline(always)]
pub(crate) fn tile_fold<const M: usize, const N: usize, const SKIP: bool>(
    coeffs: [&[f32]; M],
    panel: &[f32],
    mut acc: [[f32; N]; M],
) -> [[f32; N]; M] {
    let (steps, _) = panel.as_chunks::<N>();
    // One length for every operand, so the `k` index needs no check.
    let coeffs = coeffs.map(|c| &c[..steps.len()]);
    for (k, bk) in steps.iter().enumerate() {
        for (accr, c) in acc.iter_mut().zip(coeffs) {
            let c = c[k];
            if SKIP && skip_zero_coeff(c) {
                continue;
            }
            for (a, b) in accr.iter_mut().zip(bk) {
                *a += c * b;
            }
        }
    }
    acc
}

/// Records the shape-derived span for one matvec read of a `rows × cols`
/// matrix, in whatever layout: 2 flops per crosspoint, operand reads
/// (weights + input vector), output writes. Deterministic — a pure
/// function of the shape. Public for a caller that reuses a read's
/// result and books the read it stands in for.
pub fn record_matvec_span(rows: usize, cols: usize) {
    let f = std::mem::size_of::<f32>() as u64;
    let (rows, cols) = (rows as u64, cols as u64);
    enw_trace::record_span_io(
        "numerics/matvec",
        2 * rows * cols,
        f * (rows * cols + cols),
        f * rows,
    );
}

/// Dispatch threshold: below this flop count the simple serial loop
/// beats cache-blocking overhead.
const BLOCKED_MIN_FLOPS: usize = 1 << 17;

/// A dense, row-major `f32` matrix.
///
/// The three kernels [`matvec_into`](Matrix::matvec_into),
/// [`matvec_t_into`](Matrix::matvec_t_into) and [`rank1_update`](Matrix::rank1_update)
/// mirror the forward, backward and update cycles that a resistive crossbar
/// executes in the analog domain (paper Fig. 1).
///
/// # Example
///
/// ```
/// use enw_numerics::matrix::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let mut y = [0.0; 2];
/// m.matvec_into(&[1.0, 1.0], &mut y);
/// assert_eq!(y, [3.0, 7.0]);
/// m.matvec_t_into(&[1.0, 1.0], &mut y);
/// assert_eq!(y, [4.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from an explicit row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Creates a matrix with entries drawn uniformly from `[lo, hi)`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut Rng64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.range(lo, hi) as f32;
        }
        m
    }

    /// Creates a matrix with normal entries (Kaiming/Xavier-style inits are
    /// built on top of this in `enw-nn`).
    pub fn random_normal(rows: usize, cols: usize, mean: f64, std: f64, rng: &mut Rng64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.normal_with(mean, std) as f32;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrowed view of the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets one element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Forward matrix–vector product `y = W · x` into a caller-owned
    /// output buffer (`x` has `cols` entries, `y` has `rows` and is fully
    /// overwritten).
    ///
    /// This is the crossbar forward pass: input voltages on the columns,
    /// currents summed along each row.
    ///
    /// Runs on the rows-abreast scan driver (`scan.rs`, which documents
    /// the rule) as its plain dot fold: each `y[r]` is the single
    /// ascending-`k` chain `0.0 + w[r][0]·x[0] + w[r][1]·x[1] + …`, and
    /// several rows' chains advance together.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        record_matvec_span(self.rows, self.cols);
        fn step<V: Lane>(a: V, xi: V, w: V) -> V {
            a + w * xi
        }
        scan_rows(&self.data, x, y, 0.0f32, step, step, |a| a);
    }

    /// As [`record_matvec_span`] for the transposed product (reads the
    /// `rows`-long drive vector, writes the `cols`-long output).
    fn record_matvec_t_traffic(&self) {
        let f = std::mem::size_of::<f32>() as u64;
        let (rows, cols) = (self.rows as u64, self.cols as u64);
        enw_trace::record_span_io(
            "numerics/matvec_t",
            2 * rows * cols,
            f * (rows * cols + rows),
            f * cols,
        );
    }

    /// Transposed product `y = Wᵀ · d` into a caller-owned output buffer
    /// (`d` has `rows` entries, `y` has `cols` and is fully overwritten,
    /// including skipped-term zeros).
    ///
    /// This is the crossbar backward pass: the same array is driven from the
    /// rows and read from the columns.
    ///
    /// Rows whose coefficient `d[r]` is exactly zero are skipped under
    /// the module-level [zero-skip fast path](crate::matrix) shared with
    /// [`matmul_into`](Matrix::matmul_into). Each `y[j]` is the chain
    /// `0.0 + d[r₀]·w[r₀][j] + d[r₁]·w[r₁][j] + …` over the kept rows in
    /// ascending order, whichever of the two paths (an AVX-512F arm for
    /// every full 16 columns, where the CPU has it, and the SSE2 loop)
    /// computes it.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != rows` or `y.len() != cols`.
    pub fn matvec_t_into(&self, d: &[f32], y: &mut [f32]) {
        assert_eq!(d.len(), self.rows, "matvec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t output dimension mismatch");
        self.record_matvec_t_traffic();
        y.fill(0.0);
        #[cfg(target_arch = "x86_64")]
        let done = matvec_t_x16(&self.data, d, y).unwrap_or(0);
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        matvec_t_columns(&self.data, d, y, done);
    }

    /// Rank-1 update `W += scale · d xᵀ` (`d` per row, `x` per column).
    ///
    /// This is the ideal (floating-point) version of the crossbar parallel
    /// weight update; `enw-crossbar` replaces it with stochastic pulse
    /// coincidences on real device models.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != rows` or `x.len() != cols`.
    pub fn rank1_update(&mut self, d: &[f32], x: &[f32], scale: f32) {
        assert_eq!(d.len(), self.rows, "rank1 row dimension mismatch");
        assert_eq!(x.len(), self.cols, "rank1 column dimension mismatch");
        for (r, di) in d.iter().enumerate() {
            if skip_zero_coeff(*di) {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let s = scale * di;
            for (w, xi) in row.iter_mut().zip(x) {
                *w += s * xi;
            }
        }
    }

    /// Full matrix product `self · other` into a caller-owned output
    /// matrix (`out` is fully overwritten) — the one entry point to the
    /// product kernels. Small products, and ones too narrow for a register
    /// tile (`other.cols < 8`), run the naive triple loop; the rest run the
    /// cache-blocked kernel. Both perform the identical term sequence
    /// per output element, so results are bitwise equal whichever runs.
    ///
    /// Terms with a zero left-hand coefficient are skipped under the
    /// module-level [zero-skip fast path](crate::matrix) shared with
    /// [`matvec_t_into`](Matrix::matvec_t_into).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `out` is not
    /// `self.rows × other.cols`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, other.cols), "matmul output shape mismatch");
        self.record_matmul_traffic(other);
        out.data.fill(0.0);
        let (m, k, n) = (self.rows, self.cols, other.cols);
        if m * k * n < BLOCKED_MIN_FLOPS || n < 8 {
            self.matmul_naive_into(other, &mut out.data);
        } else {
            self.matmul_blocked_into(other, &mut out.data);
        }
    }

    /// Shape-derived span for one matmul call: 2 flops per `m·k·n`
    /// product term, operand reads (`A` + `B`), output writes.
    fn record_matmul_traffic(&self, other: &Matrix) {
        let f = std::mem::size_of::<f32>() as u64;
        let (m, k, n) = (self.rows as u64, self.cols as u64, other.cols as u64);
        enw_trace::record_span_io("numerics/matmul", 2 * m * k * n, f * (m * k + k * n), f * m * n);
    }

    /// Reference triple loop (i, k, j ascending) with the shared
    /// zero-skip rule; the term-order contract the other kernels match.
    fn matmul_naive_into(&self, other: &Matrix, out: &mut [f32]) {
        let k = self.cols;
        let n = other.cols;
        for i in 0..self.rows {
            for kk in 0..k {
                let a = self.data[i * k + kk];
                if skip_zero_coeff(a) {
                    continue;
                }
                let brow = &other.data[kk * n..(kk + 1) * n];
                axpy_row(&mut out[i * n..(i + 1) * n], a, brow);
            }
        }
    }

    /// Cache-blocked, register-tiled product into the row-major `out`.
    ///
    /// Walks `B` in `MATMUL_KC × MATMUL_NC` panels so a panel stays
    /// cache-resident, and computes each panel through a
    /// [`MATMUL_MR`]`×`[`MATMUL_NR`] register microkernel: the
    /// accumulator tile is loaded from the output once, folded over the
    /// whole k-panel in locals by [`tile_fold`] with the zero skip
    /// compiled in, and stored back once, so output traffic drops from
    /// once per `k` step to once per panel and every `B` row load is
    /// reused by `MATMUL_MR` output rows. Row and column remainders fall
    /// back to the per-term axpy path. Every path accumulates each output
    /// element in ascending-`k` order with the shared zero-skip rule, so
    /// the result is bitwise equal to
    /// [`matmul_naive_into`](Matrix::matmul_naive_into). (A packed-`Bᵀ`
    /// dot-product formulation was measured ~2.5× *slower* here: the
    /// per-term zero-skip branch defeats autovectorization of dot
    /// products, while the axpy/tile forms keep vectorizable j-loops.)
    fn matmul_blocked_into(&self, other: &Matrix, out: &mut [f32]) {
        let k = self.cols;
        let n = other.cols;
        let nrows = self.rows;
        // Rows past the last full register tile run per term.
        let tiled = nrows - nrows % MATMUL_MR;
        let b = &other.data;
        // One full-NR strip of a k-panel, NR-contiguous per k step
        // (8 KiB on the stack): the microkernel's k-loop then streams it
        // sequentially instead of striding by `n` per step. Values are
        // copied verbatim and consumed in the identical (kk, j) order, so
        // the result stays bitwise equal to the unpacked kernel.
        let mut strip = [0.0f32; MATMUL_KC * MATMUL_NR];
        let mut jb = 0;
        while jb < n {
            let je = (jb + MATMUL_NC).min(n);
            // End of the panel's full-NR strips.
            let js = jb + (je - jb) / MATMUL_NR * MATMUL_NR;
            let mut kb = 0;
            while kb < k {
                let ke = (kb + MATMUL_KC).min(k);
                let packed = &mut strip[..(ke - kb) * MATMUL_NR];
                for j in (jb..js).step_by(MATMUL_NR) {
                    for (kk, dst) in (kb..ke).zip(packed.chunks_exact_mut(MATMUL_NR)) {
                        dst.copy_from_slice(&b[kk * n + j..kk * n + j + MATMUL_NR]);
                    }
                    for i in (0..tiled).step_by(MATMUL_MR) {
                        let a = std::array::from_fn(|r| &self.data[(i + r) * k..][kb..ke]);
                        let mut acc = [[0.0f32; MATMUL_NR]; MATMUL_MR];
                        for (r, accr) in acc.iter_mut().enumerate() {
                            accr.copy_from_slice(&out[(i + r) * n + j..][..MATMUL_NR]);
                        }
                        let acc = tile_fold::<MATMUL_MR, MATMUL_NR, true>(a, packed, acc);
                        for (r, accr) in acc.iter().enumerate() {
                            out[(i + r) * n + j..][..MATMUL_NR].copy_from_slice(accr);
                        }
                    }
                }
                // Column remainder (< NR wide) of the tiled rows and the
                // row remainder (< MR rows) across the panel: per-term
                // axpy, same ascending-k order per output element.
                let tails = (0..tiled).map(|i| (i, js)).chain((tiled..nrows).map(|i| (i, jb)));
                for (i, j0) in tails.filter(|&(_, j0)| j0 < je) {
                    let arow = &self.data[i * k..(i + 1) * k];
                    let orow = &mut out[i * n + j0..i * n + je];
                    for kk in kb..ke {
                        let av = arow[kk];
                        if !skip_zero_coeff(av) {
                            axpy_row(orow, av, &b[kk * n + j0..kk * n + je]);
                        }
                    }
                }
                kb = ke;
            }
            jb = je;
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `other` element-wise, scaled: `self += scale · other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedMatvec;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn matvec_matches_manual() {
        let mut y = [0.0; 2];
        sample().matvec_into(&[1.0, 0.0, -1.0], &mut y);
        assert_eq!(y, [-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let m = sample();
        let d = [2.0, -1.0];
        let (mut y, mut want) = ([0.0; 3], [0.0; 3]);
        m.matvec_t_into(&d, &mut y);
        m.transposed().matvec_into(&d, &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn rank1_update_matches_outer_product() {
        let mut m = Matrix::zeros(2, 3);
        m.rank1_update(&[1.0, 2.0], &[3.0, 4.0, 5.0], 0.5);
        assert_eq!(m.row(0), &[1.5, 2.0, 2.5]);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn matmul_identity() {
        let m = sample();
        let id = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let mut out = Matrix::zeros(2, 3);
        m.matmul_into(&id, &mut out);
        assert_eq!(out, m);
    }

    #[test]
    fn matmul_shapes() {
        let a = Matrix::zeros(2, 5);
        let b = Matrix::zeros(5, 7);
        // `matmul_into` asserts the output is `a.rows × b.cols`.
        a.matmul_into(&b, &mut Matrix::zeros(2, 7));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_wrong_len_panics() {
        sample().matvec_into(&[1.0], &mut [0.0; 2]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn axpy_adds_scaled() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.axpy(2.0, &b);
        assert_eq!(a.row(1), &[6.0, 8.0]);
    }

    #[test]
    fn random_uniform_within_bounds() {
        let mut rng = Rng64::new(1);
        let m = Matrix::random_uniform(10, 10, -0.5, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn max_abs_finds_extreme() {
        let m = Matrix::from_rows(&[&[1.0, -7.0], &[3.0, 2.0]]);
        assert_eq!(m.max_abs(), 7.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        Matrix::zeros(0, 3);
    }

    /// Independent reference for the documented matmul semantics: the
    /// (i, k, j) triple loop with the zero-coefficient skip.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Vec<f32> {
        let mut out = vec![0.0f32; a.rows() * b.cols()];
        for i in 0..a.rows() {
            for kk in 0..a.cols() {
                let av = a.at(i, kk);
                if av == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[i * b.cols() + j] += av * b.at(kk, j);
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn random_with_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::new(seed);
        let mut m = Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng);
        for i in (0..rows * cols).step_by(7) {
            m.as_mut_slice()[i] = 0.0;
        }
        m
    }

    #[test]
    fn blocked_matmul_bitwise_matches_reference() {
        // 70×150 × 150×90 clears BLOCKED_MIN_FLOPS, has non-multiple-of-8
        // k and non-multiple-of-block edges, and zeros exercise both the
        // fused-8 fallback and the skip path; 2048×16 × 16×6 clears it
        // too but must stay on the naive branch (`cols < 8`).
        for (m, k, n) in [(70, 150, 90), (2048, 16, 6)] {
            let a = random_with_zeros(m, k, 1);
            let b = random_with_zeros(k, n, 2);
            let reference = matmul_reference(&a, &b);
            let mut c = Matrix::zeros(m, n);
            a.matmul_into(&b, &mut c);
            assert_eq!(bits(c.as_slice()), bits(&reference), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn zero_skip_drops_nonfinite_terms() {
        // A zero coefficient must suppress Inf/NaN in the other operand
        // (0·∞ would otherwise produce NaN) — in every kernel.
        let mut a = random_with_zeros(64, 64, 6);
        for kk in 0..64 {
            a.set(0, kk, 0.0);
        }
        let mut b = random_with_zeros(64, 64, 7);
        for j in 0..64 {
            b.set(0, j, f32::INFINITY);
            b.set(1, j, f32::NAN);
        }
        // Row 0 of `a` is all-zero, so its output row touches every B row
        // — including the non-finite ones — only through skipped terms
        // and must come out exactly zero.
        let mut c = Matrix::zeros(64, 64);
        a.matmul_into(&b, &mut c);
        assert!(c.row(0).iter().all(|v| *v == 0.0), "{:?}", &c.row(0)[..4]);
        // matvec_t with d == 0 on the rows whose weights are non-finite.
        let mut w = Matrix::zeros(2, 3);
        w.set(0, 0, f32::INFINITY);
        w.set(1, 1, f32::NAN);
        let mut y = [f32::NAN; 3];
        w.matvec_t_into(&[0.0, 0.0], &mut y);
        assert_eq!(y, [0.0; 3]);
    }

    #[test]
    fn matvec_t_arms_match_the_per_row_axpy_loop_bitwise() {
        use crate::scan::tests::{bits, edgy, ROW_COUNTS, WIDTHS};
        for rows in ROW_COUNTS {
            for cols in WIDTHS {
                let mut data = edgy(rows * cols, cols);
                let mut d = edgy(rows, rows + 2);
                // Every third row is driven with a signed zero, across
                // weights of ∞ and NaN that only the skip keeps out.
                for r in (0..rows).step_by(3) {
                    d[r] = if r % 2 == 0 { 0.0 } else { -0.0 };
                    data[r * cols + r % cols] = f32::INFINITY;
                    data[r * cols + (r + 1) % cols] = f32::NAN;
                }
                let mut want = vec![0.0f32; cols];
                for (&di, row) in d.iter().zip(data.chunks_exact(cols)) {
                    if di != 0.0 {
                        for (y, &w) in want.iter_mut().zip(row) {
                            *y += di * w;
                        }
                    }
                }
                let (want, at) = (bits(&want), format!("{rows} x {cols}"));
                let mut got = vec![0.0f32; cols];
                matvec_t_columns(&data, &d, &mut got, 0);
                assert_eq!(bits(&got), want, "baseline arm, {at}");
                got.fill(0.0);
                #[cfg(target_arch = "x86_64")]
                if let Some(done) = matvec_t_x16(&data, &d, &mut got) {
                    assert_eq!(done, cols / 16 * 16, "{at}");
                    assert_eq!(bits(&got[..done]), want[..done], "AVX-512F arm, {at}");
                }
                got.fill(f32::NAN);
                Matrix::from_vec(rows, cols, data).matvec_t_into(&d, &mut got);
                assert_eq!(bits(&got), want, "matvec_t_into, {at}");
            }
        }
    }

    /// Bit patterns with every NaN folded onto one: which operand's
    /// payload a NaN result carries is the instruction selector's
    /// choice, not part of the chain.
    fn bits_nan_folded(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// `matvec_into` once per input row — the definition the packed
    /// batch read must reproduce.
    fn matvec_row_by_row(w: &Matrix, xs: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; xs.len() / w.cols() * w.rows()];
        for (x, y) in xs.chunks_exact(w.cols()).zip(out.chunks_exact_mut(w.rows())) {
            w.matvec_into(x, y);
        }
        out
    }

    #[test]
    fn matvec_batch_matches_matvec_row_by_row_bitwise() {
        // Output widths with and without a strip remainder, a
        // one-column matrix, and every batch size around the row tile.
        let mut rng = Rng64::new(21);
        for (rows, cols) in [(1, 5), (7, 5), (8, 33), (10, 1), (64, 65)] {
            let w = Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng);
            for b in (0..=9).chain([33]) {
                let xs: Vec<f32> = (0..b * cols).map(|_| rng.uniform_f32() - 0.5).collect();
                let mut got = vec![f32::NAN; b * rows];
                PackedMatvec::pack(&w).matvec_batch_into(&xs, &mut got);
                assert_eq!(bits(&got), bits(&matvec_row_by_row(&w, &xs)), "{rows}x{cols}, b = {b}");
            }
        }
    }

    #[test]
    fn matvec_batch_keeps_every_term_of_the_chain() {
        // Signed zeros, subnormals, infinities and NaN in both operands:
        // a dropped `0 × inf` term, a reordered chain or an accumulator
        // that starts at -0.0 all show in the bits.
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
        let mut rng = Rng64::new(22);
        let mut draw = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| match rng.below(3) {
                    0 => AWKWARD[rng.below(AWKWARD.len())],
                    _ => rng.uniform_f32() - 0.5,
                })
                .collect()
        };
        let (mut nans, mut finite) = (0, 0);
        for (rows, cols, b) in [(10, 6, 9), (1, 3, 5), (17, 2, 4)] {
            let w = Matrix::from_vec(rows, cols, draw(rows * cols));
            let xs = draw(b * cols);
            let mut got = vec![f32::NAN; b * rows];
            PackedMatvec::pack(&w).matvec_batch_into(&xs, &mut got);
            let want = matvec_row_by_row(&w, &xs);
            nans += want.iter().filter(|v| v.is_nan()).count();
            finite += want.iter().filter(|v| v.is_finite()).count();
            assert_eq!(bits_nan_folded(&got), bits_nan_folded(&want), "{rows}x{cols}, b = {b}");
        }
        assert!(nans > 10 && finite > 10, "{nans} NaN and {finite} finite outputs");
        // The case that rules out the zero skip: 0 · inf is NaN, not 0.
        let w = Matrix::from_rows(&[&[f32::INFINITY, 1.0]]);
        let mut got = [0.0f32; 2];
        PackedMatvec::pack(&w).matvec_batch_into(&[0.0, 1.0, -0.0, 1.0], &mut got);
        assert!(got.iter().all(|v| v.is_nan()), "{got:?}");
        // All-(-0.0) products sum to +0.0: the chain starts at +0.0.
        let w = Matrix::from_rows(&[&[-0.0, -0.0]]);
        let mut got = [f32::NAN; 5];
        PackedMatvec::pack(&w).matvec_batch_into(&[1.0; 10], &mut got);
        assert_eq!(bits(&got), bits(&[0.0; 5]));
    }
}
