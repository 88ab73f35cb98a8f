//! The differentiable (attentional) memory at the heart of a MANN
//! (paper Sec. III).
//!
//! A Neural Turing Machine's external memory is a matrix `M` of `slots`
//! rows. Reads and writes are *soft*: an attention distribution over all
//! slots weights every row, which is what makes the memory differentiable —
//! and what makes it the performance bottleneck the paper's accelerators
//! target (every soft read/write touches every location).

use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;
use enw_numerics::vector::{self, softmax_into};

/// Similarity measure used for content-based addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Similarity {
    /// Cosine similarity — the conventional (GPU) MANN choice.
    Cosine,
    /// Raw dot product (what a crossbar computes in one operation).
    Dot,
    /// Negated L1 distance (CAM-friendly).
    NegL1,
    /// Negated L2 distance.
    NegL2,
    /// Negated L∞ distance (range-encoding-friendly).
    NegLinf,
}

impl Similarity {
    /// Similarity score between a query and one memory row (greater is
    /// more similar for every variant).
    pub fn score(self, query: &[f32], row: &[f32]) -> f32 {
        match self {
            Similarity::Cosine => vector::cosine_similarity(query, row),
            Similarity::Dot => vector::dot(query, row),
            Similarity::NegL1 => -vector::dist_l1(query, row),
            Similarity::NegL2 => -vector::dist_l2(query, row),
            Similarity::NegLinf => -vector::dist_linf(query, row),
        }
    }
}

/// A soft-addressable memory matrix.
///
/// # Example
///
/// ```
/// use enw_mann::memory::{DifferentiableMemory, Similarity};
///
/// let mut mem = DifferentiableMemory::new(4, 3);
/// mem.write_slot(0, &[1.0, 0.0, 0.0]);
/// let w = mem.content_address(&[1.0, 0.1, 0.0], Similarity::Cosine, 5.0);
/// assert_eq!(w.len(), 4);
/// let r = mem.soft_read(&w);
/// assert_eq!(r.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentiableMemory {
    data: Matrix,
}

impl DifferentiableMemory {
    /// An all-zero memory of `slots × dim`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(slots: usize, dim: usize) -> Self {
        DifferentiableMemory { data: Matrix::zeros(slots, dim) }
    }

    /// A memory with small random contents (useful for benchmarks).
    pub fn random(slots: usize, dim: usize, rng: &mut Rng64) -> Self {
        DifferentiableMemory { data: Matrix::random_uniform(slots, dim, -0.5, 0.5, rng) }
    }

    /// Number of memory slots.
    pub fn slots(&self) -> usize {
        self.data.rows()
    }

    /// Word width.
    pub fn dim(&self) -> usize {
        self.data.cols()
    }

    /// The raw memory matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.data
    }

    /// Overwrites one slot exactly (a "hard" write).
    ///
    /// # Panics
    ///
    /// Panics if out of range or the word width mismatches.
    pub fn write_slot(&mut self, slot: usize, word: &[f32]) {
        assert_eq!(word.len(), self.dim(), "word width mismatch");
        self.data.row_mut(slot).copy_from_slice(word);
    }

    /// One slot's contents.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn slot(&self, slot: usize) -> &[f32] {
        self.data.row(slot)
    }

    /// Similarity of `query` against *every* slot — the all-locations scan
    /// that dominates MANN runtime on conventional hardware.
    ///
    /// # Panics
    ///
    /// Panics if the query width mismatches.
    pub fn similarities(&self, query: &[f32], sim: Similarity) -> Vec<f32> {
        let mut out = vec![0.0f32; self.slots()];
        self.similarities_into(query, sim, &mut out);
        out
    }

    /// [`similarities`](DifferentiableMemory::similarities) into a
    /// caller-owned buffer of `slots` scores (`out` is fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if the query width or output length mismatches.
    pub fn similarities_into(&self, query: &[f32], sim: Similarity, out: &mut [f32]) {
        assert_eq!(query.len(), self.dim(), "query width mismatch");
        assert_eq!(out.len(), self.slots(), "similarity output length mismatch");
        let (slots, dim) = (self.slots() as u64, self.dim() as u64);
        enw_trace::record_span_io(
            "mann/similarity_scan",
            slots * dim,
            4 * (slots * dim + dim),
            4 * slots,
        );
        // One rows-abreast pass per call (`enw_numerics`' scan driver);
        // each arm finishes a row's sums exactly as `Similarity::score`,
        // the one-row oracle, does.
        match sim {
            Similarity::Cosine => {
                let nq = vector::norm_l2(query);
                self.data.scan_dot_sq_norm(query, out, |dot, sq| {
                    vector::cosine_from_parts(dot, nq, sq.sqrt())
                });
            }
            Similarity::Dot => self.data.scan_dot(query, out),
            Similarity::NegL1 => self.data.scan_dist_l1(query, out, |d| -d),
            Similarity::NegL2 => self.data.scan_dist_sq_l2(query, out, |sq| -sq.sqrt()),
            Similarity::NegLinf => self.data.scan_dist_linf(query, out, |d| -d),
        }
    }

    /// Content-based addressing: softmax (inverse temperature `beta`) over
    /// the similarity scores.
    pub fn content_address(&self, query: &[f32], sim: Similarity, beta: f32) -> Vec<f32> {
        let mut out = vec![0.0f32; self.slots()];
        self.content_address_into(query, sim, beta, &mut out);
        out
    }

    /// [`content_address`](DifferentiableMemory::content_address) into a
    /// caller-owned buffer (`out` is fully overwritten); the intermediate
    /// similarity scores live in thread-local scratch.
    ///
    /// # Panics
    ///
    /// Panics if the query width or output length mismatches.
    pub fn content_address_into(&self, query: &[f32], sim: Similarity, beta: f32, out: &mut [f32]) {
        let mut scores = enw_parallel::scratch::take_f32(self.slots());
        self.similarities_into(query, sim, &mut scores);
        softmax_into(&scores, beta, out);
    }

    /// Soft read `r = wᵀ·M`: every slot contributes per its attention
    /// weight.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != slots`.
    pub fn soft_read(&self, weights: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim()];
        self.soft_read_into(weights, &mut out);
        out
    }

    /// [`soft_read`](DifferentiableMemory::soft_read) into a caller-owned
    /// buffer of `dim` elements (`out` is fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != slots` or `out.len() != dim`.
    pub fn soft_read_into(&self, weights: &[f32], out: &mut [f32]) {
        assert_eq!(weights.len(), self.slots(), "weight length mismatch");
        self.data.matvec_t_into(weights, out);
    }

    /// Soft write with erase and add vectors (NTM semantics):
    /// `M[s] = M[s] ∘ (1 − w_s·erase) + w_s·add` for every slot `s`.
    ///
    /// # Panics
    ///
    /// Panics on any width mismatch.
    pub fn soft_write(&mut self, weights: &[f32], erase: &[f32], add: &[f32]) {
        assert_eq!(weights.len(), self.slots(), "weight length mismatch");
        assert_eq!(erase.len(), self.dim(), "erase width mismatch");
        assert_eq!(add.len(), self.dim(), "add width mismatch");
        for (s, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let row = self.data.row_mut(s);
            for ((m, &e), &a) in row.iter_mut().zip(erase).zip(add) {
                *m = *m * (1.0 - w * e) + w * a;
            }
        }
    }

    /// Index of the best-matching slot under `sim` (ties → lowest index).
    pub fn nearest(&self, query: &[f32], sim: Similarity) -> usize {
        let mut scores = enw_parallel::scratch::take_f32(self.slots());
        self.similarities_into(query, sim, &mut scores);
        vector::argmax(&scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem3() -> DifferentiableMemory {
        let mut m = DifferentiableMemory::new(3, 2);
        m.write_slot(0, &[1.0, 0.0]);
        m.write_slot(1, &[0.0, 1.0]);
        m.write_slot(2, &[-1.0, 0.0]);
        m
    }

    #[test]
    fn content_address_peaks_on_match() {
        let m = mem3();
        let w = m.content_address(&[1.0, 0.05], Similarity::Cosine, 10.0);
        assert!(w[0] > w[1] && w[0] > w[2]);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn nearest_matches_each_metric() {
        let m = mem3();
        for sim in [
            Similarity::Cosine,
            Similarity::Dot,
            Similarity::NegL1,
            Similarity::NegL2,
            Similarity::NegLinf,
        ] {
            assert_eq!(m.nearest(&[0.9, 0.0], sim), 0, "{sim:?}");
        }
    }

    #[test]
    fn soft_read_interpolates() {
        let m = mem3();
        let r = m.soft_read(&[0.5, 0.5, 0.0]);
        assert_eq!(r, vec![0.5, 0.5]);
    }

    #[test]
    fn hard_attention_reads_one_slot() {
        let m = mem3();
        assert_eq!(m.soft_read(&[0.0, 1.0, 0.0]), vec![0.0, 1.0]);
    }

    #[test]
    fn soft_write_erase_and_add() {
        let mut m = mem3();
        // Fully focused on slot 1, erase everything, add [2, 3].
        m.soft_write(&[0.0, 1.0, 0.0], &[1.0, 1.0], &[2.0, 3.0]);
        assert_eq!(m.slot(1), &[2.0, 3.0]);
        assert_eq!(m.slot(0), &[1.0, 0.0]); // untouched
    }

    #[test]
    fn partial_attention_partially_writes() {
        let mut m = DifferentiableMemory::new(1, 1);
        m.write_slot(0, &[1.0]);
        m.soft_write(&[0.5], &[1.0], &[0.0]);
        assert_eq!(m.slot(0), &[0.5]);
    }

    #[test]
    fn similarities_length() {
        let m = mem3();
        assert_eq!(m.similarities(&[0.0, 0.0], Similarity::NegL2).len(), 3);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn bad_query_width_panics() {
        mem3().similarities(&[1.0], Similarity::Cosine);
    }
}
