//! Slice-level vector math: dot products, norms, similarity and distance
//! metrics, and the softmax used by attentional (soft) memory reads.
//!
//! The MANN sections of the paper compare content-addressing under cosine
//! similarity against CAM-friendly metrics (`L1`, `L2`, `L∞`, Hamming); all
//! of those live here so that every crate measures distance identically.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// L1 norm (sum of absolute values).
#[inline]
pub fn norm_l1(a: &[f32]) -> f32 {
    a.iter().map(|x| x.abs()).sum()
}

/// L2 (Euclidean) norm.
#[inline]
pub fn norm_l2(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// L∞ norm (maximum absolute value).
#[inline]
pub fn norm_linf(a: &[f32]) -> f32 {
    a.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// L1 (Manhattan) distance.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dist_l1(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// L2 (Euclidean) distance.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dist_l2(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
}

/// L∞ (Chebyshev) distance.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dist_linf(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
}

/// Cosine similarity in `[-1, 1]`.
///
/// Returns `0.0` when either vector has (near-)zero norm, matching the
/// convention of attentional-memory implementations where an empty slot must
/// not attract focus.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    cosine_from_parts(dot(a, b), norm_l2(a), norm_l2(b))
}

/// [`cosine_similarity`] from its three reductions — `dot(a, b)` and the
/// two L2 norms — for scans that compute them per row in one pass and
/// hoist the query's norm.
#[inline]
pub fn cosine_from_parts(dot: f32, norm_a: f32, norm_b: f32) -> f32 {
    if norm_a < 1e-12 || norm_b < 1e-12 {
        return 0.0;
    }
    (dot / (norm_a * norm_b)).clamp(-1.0, 1.0)
}

/// Numerically stable softmax; optionally sharpened by inverse temperature
/// `beta` (`softmax(beta * x)`).
///
/// Returns a distribution that sums to 1 for any finite input.
///
/// # Panics
///
/// Panics if `logits` is empty or `beta` is not finite.
pub fn softmax(logits: &[f32], beta: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; logits.len()];
    softmax_into(logits, beta, &mut out);
    out
}

/// [`softmax`] into a caller-owned buffer (`out` is fully overwritten):
/// exponentials accumulate into `out`, then one in-order sum and divide —
/// bit-identical to the allocating form.
///
/// # Panics
///
/// Panics if `logits` is empty, `beta` is not finite, or the lengths
/// mismatch.
pub fn softmax_into(logits: &[f32], beta: f32, out: &mut [f32]) {
    assert!(!logits.is_empty(), "softmax over empty slice");
    assert!(beta.is_finite(), "softmax temperature must be finite");
    assert_eq!(out.len(), logits.len(), "softmax output length mismatch");
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(beta * x));
    for (e, &x) in out.iter_mut().zip(logits) {
        *e = (beta * x - max).exp();
    }
    let sum: f32 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// Index of the maximum element (first occurrence on ties).
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax over empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Index of the minimum element (first occurrence on ties).
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmin(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmin over empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

/// Normalizes a vector to unit L2 norm in place; leaves a zero vector
/// untouched.
pub fn normalize_l2(xs: &mut [f32]) {
    let n = norm_l2(xs);
    if n > 1e-12 {
        for x in xs.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norms_on_pythagorean_triple() {
        let v = [3.0, -4.0];
        assert_eq!(norm_l1(&v), 7.0);
        assert_eq!(norm_l2(&v), 5.0);
        assert_eq!(norm_linf(&v), 4.0);
    }

    #[test]
    fn distances_agree_with_norm_of_difference() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 0.0, 3.0];
        assert_eq!(dist_l1(&a, &b), 5.0);
        assert!((dist_l2(&a, &b) - 13.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(dist_linf(&a, &b), 3.0);
    }

    #[test]
    fn cosine_of_parallel_is_one() {
        let a = [1.0, 2.0];
        let b = [2.0, 4.0];
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0], 1.0);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1000.0, 1001.0], 1.0);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_beta_sharpens() {
        let soft = softmax(&[1.0, 2.0], 1.0);
        let sharp = softmax(&[1.0, 2.0], 10.0);
        assert!(sharp[1] > soft[1]);
    }

    #[test]
    fn argmax_argmin() {
        let v = [3.0, -1.0, 7.0, 7.0];
        assert_eq!(argmax(&v), 2);
        assert_eq!(argmin(&v), 1);
    }

    #[test]
    fn normalize_makes_unit() {
        let mut v = [3.0, 4.0];
        normalize_l2(&mut v);
        assert!((norm_l2(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_noop() {
        let mut v = [0.0, 0.0];
        normalize_l2(&mut v);
        assert_eq!(v, [0.0, 0.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = [1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, [3.0, -1.0]);
    }
}
