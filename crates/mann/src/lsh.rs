//! Locality-sensitive hashing with random hyperplanes (paper Sec. IV-B2,
//! refs. \[9\]\[56\]).
//!
//! A real-valued feature vector hashes to one bit per hyperplane: the sign
//! of its projection. Vectors at angle θ collide on each bit with
//! probability `1 − θ/π`, so the Hamming distance between signatures is a
//! monotone estimator of angular (cosine) distance — exactly what lets a
//! TCAM's native Hamming search stand in for the GPU's cosine similarity.

use enw_numerics::bits::BitVec;
use enw_numerics::matrix::Matrix;
use enw_numerics::packed::PackedMatvec;
use enw_numerics::rng::Rng64;

/// A random-hyperplane LSH encoder.
///
/// # Example
///
/// ```
/// use enw_mann::lsh::RandomHyperplaneLsh;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(3);
/// let lsh = RandomHyperplaneLsh::new(64, 8, &mut rng);
/// let sig = lsh.encode(&[1.0; 8]);
/// assert_eq!(sig.len(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomHyperplaneLsh {
    /// `planes × dim`, drawn once and only ever read: held packed.
    planes: PackedMatvec,
}

impl RandomHyperplaneLsh {
    /// Draws `planes` Gaussian hyperplanes over `dim`-dimensional inputs.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(planes: usize, dim: usize, rng: &mut Rng64) -> Self {
        assert!(planes > 0 && dim > 0, "degenerate LSH");
        let drawn = Matrix::random_normal(planes, dim, 0.0, 1.0, rng);
        RandomHyperplaneLsh { planes: PackedMatvec::pack(&drawn) }
    }

    /// Signature length in bits.
    pub fn planes(&self) -> usize {
        self.planes.rows()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.planes.cols()
    }

    /// Hashes a vector to its binary signature.
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches.
    pub fn encode(&self, x: &[f32]) -> BitVec {
        let mut sig = BitVec::zeros(self.planes());
        self.encode_into(x, &mut vec![0.0; self.planes()], &mut sig);
        sig
    }

    /// [`encode`](RandomHyperplaneLsh::encode) into a caller-owned
    /// signature (every bit of `sig` is overwritten), the projections
    /// staged in the caller's `projections` (`planes()` long, contents
    /// ignored and overwritten): with both reused, hashing is
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the input width, `projections.len()` or `sig.len()`
    /// mismatches.
    pub fn encode_into(&self, x: &[f32], projections: &mut [f32], sig: &mut BitVec) {
        assert_eq!(sig.len(), self.planes(), "signature width mismatch");
        self.planes.matvec_into(x, projections);
        sig.assign(projections.iter().map(|&p| p >= 0.0));
    }

    /// Theoretical per-bit collision probability for two vectors at angle
    /// `theta` radians: `1 − θ/π`.
    pub fn collision_probability(theta: f64) -> f64 {
        1.0 - theta / std::f64::consts::PI
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enw_numerics::vector::cosine_similarity;

    #[test]
    fn identical_vectors_collide_fully() {
        let mut rng = Rng64::new(1);
        let lsh = RandomHyperplaneLsh::new(32, 8, &mut rng);
        let v = [0.3f32, -0.2, 0.5, 0.0, 1.0, -1.0, 0.25, 0.75];
        assert_eq!(lsh.encode(&v).hamming(&lsh.encode(&v)), 0);
    }

    #[test]
    fn encode_into_overwrites_a_reused_signature_with_the_projection_signs() {
        let mut rng = Rng64::new(6);
        // 130 planes: two full limbs and a partial one.
        let lsh = RandomHyperplaneLsh::new(130, 5, &mut rng);
        let mut sig = BitVec::from_bools(&[true; 130]);
        for _ in 0..4 {
            let x: Vec<f32> = (0..5).map(|_| rng.normal() as f32).collect();
            lsh.encode_into(&x, &mut [f32::NAN; 130], &mut sig);
            let mut proj = [0.0f32; 130];
            lsh.planes.to_matrix().matvec_into(&x, &mut proj);
            let signs: Vec<bool> = proj.iter().map(|&p| p >= 0.0).collect();
            assert_eq!(sig, BitVec::from_bools(&signs));
            assert_eq!(sig, lsh.encode(&x));
        }
    }

    #[test]
    fn opposite_vectors_disagree_fully() {
        let mut rng = Rng64::new(2);
        let lsh = RandomHyperplaneLsh::new(64, 4, &mut rng);
        let v = [0.5f32, -0.25, 1.0, 0.1];
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        // Every projection flips sign (ignoring exact zeros, absent here).
        assert_eq!(lsh.encode(&v).hamming(&lsh.encode(&neg)), 64);
    }

    #[test]
    fn hamming_monotone_in_angle() {
        // Closer vectors (smaller angle) must produce smaller expected
        // Hamming distance.
        let mut rng = Rng64::new(3);
        let lsh = RandomHyperplaneLsh::new(512, 8, &mut rng);
        let base = [1.0f32, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let near = [0.9f32, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let far = [0.0f32, 0.1, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let d_near = lsh.encode(&base).hamming(&lsh.encode(&near));
        let d_far = lsh.encode(&base).hamming(&lsh.encode(&far));
        assert!(d_near < d_far, "near {d_near}, far {d_far}");
    }

    #[test]
    fn empirical_collision_rate_matches_theory() {
        let mut rng = Rng64::new(4);
        let planes = 4096;
        let lsh = RandomHyperplaneLsh::new(planes, 2, &mut rng);
        // 60° apart in 2-D.
        let a = [1.0f32, 0.0];
        let b = [0.5f32, 3.0f32.sqrt() / 2.0];
        let theta = (cosine_similarity(&a, &b) as f64).acos();
        let ham = lsh.encode(&a).hamming(&lsh.encode(&b));
        let empirical = 1.0 - ham as f64 / planes as f64;
        let expected = RandomHyperplaneLsh::collision_probability(theta);
        assert!((empirical - expected).abs() < 0.03, "{empirical} vs {expected}");
    }

    #[test]
    fn scale_invariance() {
        // LSH depends only on direction.
        let mut rng = Rng64::new(5);
        let lsh = RandomHyperplaneLsh::new(64, 4, &mut rng);
        let v = [0.4f32, -0.1, 0.2, 0.9];
        let scaled: Vec<f32> = v.iter().map(|x| x * 7.5).collect();
        assert_eq!(lsh.encode(&v), lsh.encode(&scaled));
    }
}
