//! Binary-reflected Gray code (BRGC) range encodings and ternary words —
//! the RENE approach of paper Sec. IV-B1 (refs. \[53\]\[54\]).
//!
//! A TCAM matches a query against stored words where each stored bit is
//! `0`, `1` or *don't care*. RENE encodes fixed-point feature levels in
//! BRGC and expresses an interval `[lo, hi]` as a ternary pattern whose
//! specified bits are those constant across every code in the interval.
//! Growing the interval (an L∞ cube around the query) until the TCAM
//! reports a match yields a nearest-neighbour search using only parallel
//! ternary matches.

use enw_numerics::bits::BitVec;

/// Binary-reflected Gray code of `v`.
pub fn brgc(v: u32) -> u32 {
    v ^ (v >> 1)
}

/// Inverse BRGC.
pub fn from_brgc(g: u32) -> u32 {
    let mut out = g;
    let mut cur = g >> 1;
    while cur != 0 {
        out ^= cur;
        cur >>= 1;
    }
    out
}

/// A ternary word: `care` marks specified bit positions, `bits` holds
/// their values (don't-care positions have `care = 0`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TernaryWord {
    bits: BitVec,
    care: BitVec,
}

impl TernaryWord {
    /// A fully specified word (no don't-cares).
    pub fn exact(bits: BitVec) -> Self {
        let care = (0..bits.len()).map(|_| true).collect();
        TernaryWord { bits, care }
    }

    /// Builds a ternary word from bit values and a care mask.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length.
    pub fn new(bits: BitVec, care: BitVec) -> Self {
        assert_eq!(bits.len(), care.len(), "bits and care mask must align");
        TernaryWord { bits, care }
    }

    /// Word length in bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` for a zero-length word.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of specified (non-don't-care) bits.
    pub fn care_count(&self) -> usize {
        self.care.count_ones()
    }

    /// Exact ternary match: every specified bit must agree.
    ///
    /// # Panics
    ///
    /// Panics if the stored word has a different length.
    pub fn matches(&self, stored: &BitVec) -> bool {
        assert_eq!(stored.len(), self.len(), "word length mismatch");
        self.matches_limbs(stored.limbs())
    }

    /// [`matches`](TernaryWord::matches) against a word given as packed
    /// limbs (as stored in a flat TCAM array). One XOR + AND per 64 bits:
    /// a don't-care position is masked off by the `care` limb, so only
    /// specified bits can produce a set difference bit.
    ///
    /// # Panics
    ///
    /// Panics if the limb count differs from this pattern's.
    pub fn matches_limbs(&self, stored: &[u64]) -> bool {
        let bits = self.bits.limbs();
        let care = self.care.limbs();
        assert_eq!(stored.len(), bits.len(), "word length mismatch");
        bits.iter().zip(care).zip(stored).all(|((b, c), s)| (b ^ s) & c == 0)
    }

    /// Hamming distance over the specified bits only (what a TCAM
    /// match-line discharge rate measures).
    ///
    /// # Panics
    ///
    /// Panics if the stored word has a different length.
    pub fn mismatches(&self, stored: &BitVec) -> usize {
        assert_eq!(stored.len(), self.len(), "word length mismatch");
        let bits = self.bits.limbs();
        let care = self.care.limbs();
        bits.iter()
            .zip(care)
            .zip(stored.limbs())
            .map(|((b, c), s)| ((b ^ s) & c).count_ones() as usize)
            .sum()
    }
}

/// Encodes one fixed-point level (in `0..levels`) as `bits_per_dim` BRGC
/// bits.
///
/// # Panics
///
/// Panics if `level` does not fit in `bits_per_dim` bits.
pub fn encode_level(level: u32, bits_per_dim: u32) -> BitVec {
    assert!(level < (1u64 << bits_per_dim) as u32, "level {level} exceeds {bits_per_dim} bits");
    let g = brgc(level);
    (0..bits_per_dim).map(|b| (g >> b) & 1 == 1).collect()
}

/// Encodes a multi-dimensional level vector by concatenating per-dimension
/// BRGC codes.
pub fn encode_levels(levels: &[u32], bits_per_dim: u32) -> BitVec {
    let mut all = Vec::with_capacity(levels.len() * bits_per_dim as usize);
    for &l in levels {
        all.extend(encode_level(l, bits_per_dim).iter());
    }
    BitVec::from_bools(&all)
}

/// Ternary pattern covering the interval `[lo, hi]` of levels in one
/// dimension: specified bits are those constant across all BRGC codes in
/// the interval. The cover is a superset of the interval (standard for
/// single-word range encodings); BRGC keeps the over-coverage small for
/// the unit-radius steps the KNN search uses.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi` does not fit in `bits_per_dim` bits.
pub fn range_pattern(lo: u32, hi: u32, bits_per_dim: u32) -> TernaryWord {
    assert!(lo <= hi, "invalid range");
    assert!(hi < (1u64 << bits_per_dim) as u32, "range exceeds bit width");
    let mut and_mask = u32::MAX;
    let mut or_mask = 0u32;
    for v in lo..=hi {
        let g = brgc(v);
        and_mask &= g;
        or_mask |= g;
    }
    // Bits where AND == OR are constant over the range.
    let constant = !(and_mask ^ or_mask);
    let bits: BitVec = (0..bits_per_dim).map(|b| (and_mask >> b) & 1 == 1).collect();
    let care: BitVec = (0..bits_per_dim).map(|b| (constant >> b) & 1 == 1).collect();
    TernaryWord::new(bits, care)
}

/// Ternary pattern for an L∞ cube of radius `r` around a level vector:
/// the concatenation of per-dimension `[vᵢ−r, vᵢ+r]` patterns (clamped to
/// the level range).
pub fn cube_pattern(levels: &[u32], radius: u32, bits_per_dim: u32) -> TernaryWord {
    let max_level = ((1u64 << bits_per_dim) - 1) as u32;
    let mut bits = Vec::new();
    let mut care = Vec::new();
    for &v in levels {
        let lo = v.saturating_sub(radius);
        let hi = (v + radius).min(max_level);
        let p = range_pattern(lo, hi, bits_per_dim);
        for i in 0..p.len() {
            bits.push(p.bits.get(i));
            care.push(p.care.get(i));
        }
    }
    TernaryWord::new(BitVec::from_bools(&bits), BitVec::from_bools(&care))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brgc_round_trip() {
        for v in 0..1024u32 {
            assert_eq!(from_brgc(brgc(v)), v);
        }
    }

    #[test]
    fn brgc_neighbours_differ_in_one_bit() {
        for v in 0..255u32 {
            let d = (brgc(v) ^ brgc(v + 1)).count_ones();
            assert_eq!(d, 1, "codes of {v} and {} differ in {d} bits", v + 1);
        }
    }

    #[test]
    fn exact_word_matches_only_itself() {
        let w = TernaryWord::exact(encode_level(5, 4));
        assert!(w.matches(&encode_level(5, 4)));
        assert!(!w.matches(&encode_level(6, 4)));
    }

    #[test]
    fn range_pattern_covers_entire_range() {
        for (lo, hi) in [(0u32, 3u32), (2, 5), (7, 7), (0, 15), (3, 12)] {
            let p = range_pattern(lo, hi, 4);
            for v in lo..=hi {
                assert!(p.matches(&encode_level(v, 4)), "[{lo},{hi}] missed {v}");
            }
        }
    }

    #[test]
    fn aligned_range_is_tight() {
        // Power-of-two aligned ranges are exactly representable.
        let p = range_pattern(0, 7, 4);
        for v in 0..16u32 {
            assert_eq!(p.matches(&encode_level(v, 4)), v <= 7, "level {v}");
        }
    }

    #[test]
    fn radius_zero_cube_is_exact() {
        let levels = [3u32, 9, 0];
        let p = cube_pattern(&levels, 0, 4);
        assert!(p.matches(&encode_levels(&levels, 4)));
        assert!(!p.matches(&encode_levels(&[3, 9, 1], 4)));
        assert_eq!(p.care_count(), 12);
    }

    #[test]
    fn cube_matches_everything_within_linf_radius() {
        let levels = [5u32, 10];
        let p = cube_pattern(&levels, 2, 4);
        for a in 3..=7u32 {
            for b in 8..=12u32 {
                assert!(p.matches(&encode_levels(&[a, b], 4)), "({a},{b})");
            }
        }
    }

    #[test]
    fn larger_radius_has_fewer_care_bits() {
        let levels = [8u32; 4];
        let tight = cube_pattern(&levels, 0, 4);
        let loose = cube_pattern(&levels, 3, 4);
        assert!(loose.care_count() < tight.care_count());
    }

    #[test]
    fn mismatches_counts_specified_disagreements() {
        let w = TernaryWord::exact(BitVec::from_bools(&[true, false, true]));
        let stored = BitVec::from_bools(&[true, true, false]);
        assert_eq!(w.mismatches(&stored), 2);
    }

    #[test]
    fn cube_clamps_at_level_boundaries() {
        let p = cube_pattern(&[0u32], 3, 4);
        assert!(p.matches(&encode_level(0, 4)));
        assert!(p.matches(&encode_level(3, 4)));
    }
}
