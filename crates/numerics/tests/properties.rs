//! Property-based tests for the numerics substrate.
//!
//! Compiled only with `--features proptest` so the default tier-1 run
//! stays lean; enable it in CI sweeps via `scripts/verify.sh --full`.
#![cfg(feature = "proptest")]

use enw_numerics::bits::{nearest_hamming, BitVec};
use enw_numerics::matrix::Matrix;
use enw_numerics::quant::Quantizer;
use enw_numerics::rng::Rng64;
use enw_numerics::vector;
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #[test]
    fn matvec_t_equals_transpose_matvec(rows in 1usize..8, cols in 1usize..8, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let m = Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng);
        let d: Vec<f32> = (0..rows).map(|_| rng.range(-1.0, 1.0) as f32).collect();
        let (mut a, mut b) = (vec![0.0f32; cols], vec![0.0f32; cols]);
        m.matvec_t_into(&d, &mut a);
        m.transposed().matvec_into(&d, &mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn rank1_update_equals_dense_outer(rows in 1usize..6, cols in 1usize..6, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let mut m = Matrix::zeros(rows, cols);
        let d: Vec<f32> = (0..rows).map(|_| rng.range(-2.0, 2.0) as f32).collect();
        let x: Vec<f32> = (0..cols).map(|_| rng.range(-2.0, 2.0) as f32).collect();
        m.rank1_update(&d, &x, 0.7);
        for (r, dr) in d.iter().enumerate() {
            for (c, xc) in x.iter().enumerate() {
                prop_assert!((m.at(r, c) - 0.7 * dr * xc).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn softmax_is_distribution(v in finite_vec(16), beta in 0.1f32..20.0) {
        let mut p = vec![0.0f32; v.len()];
        vector::softmax_into(&v, beta, &mut p);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn distance_metric_axioms(a in finite_vec(8), b in finite_vec(8)) {
        // Symmetry and identity for all three Minkowski metrics.
        prop_assert!((vector::dist_l1(&a, &b) - vector::dist_l1(&b, &a)).abs() < 1e-3);
        prop_assert!((vector::dist_l2(&a, &b) - vector::dist_l2(&b, &a)).abs() < 1e-3);
        prop_assert!((vector::dist_linf(&a, &b) - vector::dist_linf(&b, &a)).abs() < 1e-3);
        prop_assert_eq!(vector::dist_l1(&a, &a), 0.0);
        // Metric ordering: Linf <= L2 <= L1 always.
        prop_assert!(vector::dist_linf(&a, &b) <= vector::dist_l2(&a, &b) + 1e-3);
        prop_assert!(vector::dist_l2(&a, &b) <= vector::dist_l1(&a, &b) + 1e-3);
    }

    #[test]
    fn triangle_inequality_l2(a in finite_vec(6), b in finite_vec(6), c in finite_vec(6)) {
        let ab = vector::dist_l2(&a, &b);
        let bc = vector::dist_l2(&b, &c);
        let ac = vector::dist_l2(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-2);
    }

    #[test]
    fn cosine_bounded(a in finite_vec(8), b in finite_vec(8)) {
        let s = vector::cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn hamming_is_a_metric(xs in prop::collection::vec(any::<bool>(), 1..200),
                           ys in prop::collection::vec(any::<bool>(), 1..200),
                           zs in prop::collection::vec(any::<bool>(), 1..200)) {
        let n = xs.len().min(ys.len()).min(zs.len());
        let a = BitVec::from_bools(&xs[..n]);
        let b = BitVec::from_bools(&ys[..n]);
        let c = BitVec::from_bools(&zs[..n]);
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert_eq!(a.hamming(&a), 0);
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
        prop_assert!(a.hamming(&b) <= n);
    }

    /// The word-scan kernel against a per-bit scan, for every fixed-width
    /// arm (1, 2, 4, 8 limbs), the generic arm and widths that are not a
    /// limb multiple, from the empty store up.
    #[test]
    fn nearest_hamming_matches_naive_per_bit_scan(
        width in 1usize..521, len in 0usize..301, seed in any::<u64>()) {
        nearest_matches_naive(width, len, seed);
    }

    /// 256-bit words, at least 9 of them: where the CPU has AVX-512
    /// VPOPCNTDQ the dispatched scan runs both the vector arm's 8-word
    /// blocks and its scalar remainder.
    #[test]
    fn nearest_hamming_256_bit_blocks_and_remainder_match_naive(
        len in 9usize..600, seed in any::<u64>()) {
        nearest_matches_naive(256, len, seed);
    }

    #[test]
    fn quantizer_round_trip_bounded(bits in 2u32..12, v in -10.0f32..10.0) {
        let q = Quantizer::new(bits, 10.0);
        let err = (v - q.round_trip(v)).abs();
        prop_assert!(err <= q.step() / 2.0 + 1e-5);
    }

    #[test]
    fn quantizer_levels_in_range(bits in 2u32..10, v in finite_vec(32)) {
        let q = Quantizer::fit(bits, &v);
        let levels = q.to_levels(&v);
        prop_assert!(levels.iter().all(|&l| l < q.level_count()));
    }

    #[test]
    fn rng_below_uniform_support(n in 1usize..64, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }
}

/// `nearest_hamming` over `len` random `width`-bit words against a
/// per-bit scan. One word is planted at several indices next to the first
/// query, so the minimum is a tie and the lowest index has to win it.
fn nearest_matches_naive(width: usize, len: usize, seed: u64) {
    let mut rng = Rng64::new(seed);
    let word = |rng: &mut Rng64| (0..width).map(|_| rng.below(2) == 1).collect::<Vec<bool>>();
    let mut words: Vec<Vec<bool>> = (0..len).map(|_| word(&mut rng)).collect();
    let mut queries = vec![word(&mut rng)];
    if len > 0 {
        let planted = words[rng.below(len)].clone();
        for _ in 0..3 {
            words[rng.below(len)] = planted.clone();
        }
        let mut near = planted;
        for _ in 0..rng.below(3) {
            let flip = rng.below(width);
            near[flip] = !near[flip];
        }
        queries.insert(0, near);
    }
    let flat: Vec<u64> =
        words.iter().flat_map(|w| BitVec::from_bools(w).limbs().to_vec()).collect();
    for q in &queries {
        let naive = words
            .iter()
            .map(|w| w.iter().zip(q).filter(|(a, b)| a != b).count() as u32)
            .enumerate()
            .min_by_key(|&(i, d)| (d, i));
        let got = nearest_hamming(&flat, width.div_ceil(64), BitVec::from_bools(q).limbs());
        assert_eq!(got, naive, "{width} bits x {len} words");
    }
}

/// A `[-1, 1)` draw three times in four, else raw bits — which reach
/// both zeros, subnormals, infinities and NaN.
fn awkward_f32(rng: &mut Rng64) -> f32 {
    if rng.below(4) == 0 {
        f32::from_bits(rng.next_u64() as u32)
    } else {
        rng.range(-1.0, 1.0) as f32
    }
}

// The rows-abreast scans against the one-row `vector` functions they
// stand in for: equal to the bit (NaN equal to NaN) whatever the row
// count leaves over from the 16- and 4-row interleaves and whatever the
// contents.
proptest! {
    #[test]
    fn row_scans_match_one_row_functions_bitwise(
        rows in 1usize..40, cols in 1usize..80, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| awkward_f32(&mut rng)).collect();
        let m = Matrix::from_vec(rows, cols, data);
        let x: Vec<f32> = (0..cols).map(|_| awkward_f32(&mut rng)).collect();
        let scan = |run: &dyn Fn(&mut [f32])| {
            let mut out = vec![0.0f32; rows];
            run(&mut out);
            out
        };
        let one_row = |f: &dyn Fn(&[f32]) -> f32| (0..rows).map(|r| f(m.row(r))).collect::<Vec<_>>();
        let same = |got: Vec<f32>, want: Vec<f32>, what: &str| {
            for (r, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{what}, row {r} of {rows} x {cols}: {g:?} vs {w:?}"
                );
            }
        };
        // `matvec`'s dot starts from +0.0, `vector::dot`'s from -0.0.
        let matvec_row = |w: &[f32]| w.iter().zip(&x).fold(0.0f32, |a, (w, xi)| a + w * xi);
        same(scan(&|o| m.matvec_into(&x, o)), one_row(&matvec_row), "matvec");
        same(
            scan(&|o| m.scan_matvec_l1(&x, o, |d, n| d / (n + 1e-6))),
            one_row(&|w| matvec_row(w) / (vector::norm_l1(w) + 1e-6)),
            "matvec + l1",
        );
        same(
            scan(&|o| m.scan_dot_sq_norm(&x, o, |d, sq| d / (sq.sqrt() + 1.0))),
            one_row(&|w| vector::dot(&x, w) / (vector::norm_l2(w) + 1.0)),
            "dot + sq norm",
        );
        same(scan(&|o| m.scan_dot(&x, o)), one_row(&|w| vector::dot(&x, w)), "dot");
        same(scan(&|o| m.scan_dist_l1(&x, o, |d| d)), one_row(&|w| vector::dist_l1(&x, w)), "l1");
        same(
            scan(&|o| m.scan_dist_sq_l2(&x, o, f32::sqrt)),
            one_row(&|w| vector::dist_l2(&x, w)),
            "l2",
        );
        same(
            scan(&|o| m.scan_dist_linf(&x, o, |d| d)),
            one_row(&|w| vector::dist_linf(&x, w)),
            "linf",
        );
    }
}
