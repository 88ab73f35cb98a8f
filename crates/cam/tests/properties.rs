//! Property-based tests for the limb-packed TCAM search path.
//!
//! Compiled only with `--features proptest` so the default tier-1 run
//! stays lean; enable it in CI sweeps via `scripts/verify.sh --full`.
#![cfg(feature = "proptest")]

use enw_cam::array::{NearestHit, TcamConfig};
use enw_cam::bank::TcamBank;
use enw_cam::cells;
use enw_mann::encoding::TernaryWord;
use enw_numerics::bits::BitVec;
use enw_numerics::rng::Rng64;
use proptest::prelude::*;

/// Draws `len` words of `width` random bits (both packed and unpacked
/// forms, for the naive per-bit reference).
fn random_words(len: usize, width: usize, rng: &mut Rng64) -> Vec<Vec<bool>> {
    (0..len).map(|_| (0..width).map(|_| rng.below(2) == 1).collect()).collect()
}

/// The naive software CAM: per-bit Hamming scan with the lowest-index
/// tie rule — the behavioural reference for the packed `u64` search.
fn naive_nearest(words: &[Vec<bool>], query: &[bool]) -> Option<NearestHit> {
    let mut best: Option<NearestHit> = None;
    for (i, w) in words.iter().enumerate() {
        let distance = w.iter().zip(query).filter(|(a, b)| a != b).count();
        if best.is_none_or(|b| distance < b.distance) {
            best = Some(NearestHit { index: i, distance });
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// The limb-packed bank search returns exactly what the per-bit scan
    /// returns — same index (lowest on ties, the priority-encoder rule)
    /// and same distance — for widths on and off the u64 limb boundary,
    /// through every fixed-width arm of the scan kernel (1, 2, 4 and 8
    /// limbs) and its generic arm.
    #[test]
    fn bank_search_matches_naive_per_bit_scan(
        width in 1usize..600, len in 1usize..400, rows_per_array in 1usize..65,
        seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let words = random_words(len, width, &mut rng);
        let mut bank = TcamBank::new(width, rows_per_array, cells::fefet_2t(), TcamConfig::default());
        for w in &words {
            bank.write(BitVec::from_bools(w));
        }
        for _ in 0..4 {
            let q: Vec<bool> = (0..width).map(|_| rng.below(2) == 1).collect();
            let (hit, _) = bank.search_nearest(&BitVec::from_bools(&q));
            prop_assert_eq!(hit, naive_nearest(&words, &q));
        }
    }

    /// `TernaryWord::matches` (the limb-wise masked compare) agrees with
    /// the per-bit model: every cared bit equal, don't-care bits free.
    #[test]
    fn ternary_match_agrees_with_per_bit_model(
        width in 1usize..140, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let bits: Vec<bool> = (0..width).map(|_| rng.below(2) == 1).collect();
        let care: Vec<bool> = (0..width).map(|_| rng.below(4) != 0).collect();
        let pattern = TernaryWord::new(BitVec::from_bools(&bits), BitVec::from_bools(&care));
        for _ in 0..8 {
            // Mix exact copies, near-misses, and random words.
            let stored: Vec<bool> = match rng.below(3) {
                0 => bits.clone(),
                1 => {
                    let mut s = bits.clone();
                    let flip = rng.below(width);
                    s[flip] = !s[flip];
                    s
                }
                _ => (0..width).map(|_| rng.below(2) == 1).collect(),
            };
            let reference = bits
                .iter()
                .zip(&care)
                .zip(&stored)
                .all(|((b, c), s)| !c || b == s);
            let mismatches = bits
                .iter()
                .zip(&care)
                .zip(&stored)
                .filter(|((b, c), s)| **c && b != s)
                .count();
            let packed = BitVec::from_bools(&stored);
            prop_assert_eq!(pattern.matches(&packed), reference);
            prop_assert_eq!(pattern.mismatches(&packed), mismatches);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// The same check on banks of two to four search chunks (4,096 words
    /// each), so the chunks are dealt to the pool and their hits folded:
    /// queries copied from stored words (distance 0, with the copy's
    /// first occurrence to win) beside random ones.
    #[test]
    fn dealt_bank_search_matches_naive_per_bit_scan(
        width in 1usize..300, len in 4097usize..16_384, rows_per_array in 1usize..700,
        seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let mut words = random_words(len, width, &mut rng);
        // A word stored twice, in different chunks.
        let (a, b) = (rng.below(4096), 4096 + rng.below(len - 4096));
        words[b] = words[a].clone();
        let mut bank = TcamBank::new(width, rows_per_array, cells::fefet_2t(), TcamConfig::default());
        for w in &words {
            bank.write(BitVec::from_bools(w));
        }
        let queries = [words[b].clone(), (0..width).map(|_| rng.below(2) == 1).collect()];
        for q in &queries {
            let (hit, _) = bank.search_nearest(&BitVec::from_bools(q));
            prop_assert_eq!(hit, naive_nearest(&words, q));
        }
    }
}
