//! Packed bit vectors and Hamming distance.
//!
//! A CAM/TCAM natively computes the Hamming distance between a query and
//! every stored word (paper Sec. IV). [`BitVec`] is the software image of
//! one stored word: bits packed into `u64` limbs so that distance is a few
//! XOR + popcount operations. [`nearest_hamming`], the whole-store search,
//! picks one of three codegens per scan by what the CPU reports: AVX-512
//! VPOPCNTDQ for 256-bit words, scalar `popcnt`, or the portable body that
//! both are checked against.

/// A fixed-length packed bit vector.
///
/// # Example
///
/// ```
/// use enw_numerics::bits::BitVec;
///
/// let a = BitVec::from_bools(&[true, false, true]);
/// let b = BitVec::from_bools(&[true, true, true]);
/// assert_eq!(a.hamming(&b), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    limbs: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec { len, limbs: vec![0; len.div_ceil(64)] }
    }

    /// Creates a bit vector from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        v.assign(bits.iter().copied());
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds");
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of bounds");
        let mask = 1u64 << (i % 64);
        if value {
            self.limbs[i / 64] |= mask;
        } else {
            self.limbs[i / 64] &= !mask;
        }
    }

    /// Overwrites every bit from `bits`, packing one limb at a time: no
    /// allocation and no per-bit bounds check, so a buffer can be refilled
    /// in a hot loop.
    ///
    /// # Panics
    ///
    /// Panics if `bits` does not yield exactly `len()` values.
    pub fn assign(&mut self, bits: impl IntoIterator<Item = bool>) {
        let mut bits = bits.into_iter();
        let mut taken = 0;
        for limb in &mut self.limbs {
            let mut packed = 0u64;
            let mut shift = 0;
            for b in bits.by_ref().take((self.len - taken).min(64)) {
                packed |= u64::from(b) << shift;
                shift += 1;
            }
            *limb = packed;
            taken += shift;
        }
        assert!(taken == self.len && bits.next().is_none(), "assign needs exactly len() bits");
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Hamming distance to another bit vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "hamming length mismatch");
        hamming_limbs(&self.limbs, &other.limbs) as usize
    }

    /// The packed `u64` limbs (little-endian bit order; bits at positions
    /// `>= len()` are always zero). Lets word stores keep many vectors'
    /// limbs contiguous and run limb-wise kernels like [`hamming_limbs`]
    /// without going through per-bit accessors.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Iterator over the bits as booleans.
    pub fn iter(&self) -> Iter<'_> {
        Iter { vec: self, pos: 0 }
    }
}

/// Hamming distance between two packed limb slices: XOR + `count_ones`
/// per 64-bit word, unrolled four wide so the popcounts form independent
/// dependency chains (and vectorize where the target has a packed
/// popcount). This is the match-line model of a CAM search: every stored
/// word's distance is a handful of word-wide operations, not a per-bit
/// walk.
///
/// # Panics
///
/// Panics if the slices have different lengths.
// enw:hot
#[inline]
pub fn hamming_limbs(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming length mismatch");
    let mut quads_a = a.chunks_exact(4);
    let mut quads_b = b.chunks_exact(4);
    let (mut d0, mut d1, mut d2, mut d3) = (0u32, 0u32, 0u32, 0u32);
    for (qa, qb) in (&mut quads_a).zip(&mut quads_b) {
        d0 += (qa[0] ^ qb[0]).count_ones();
        d1 += (qa[1] ^ qb[1]).count_ones();
        d2 += (qa[2] ^ qb[2]).count_ones();
        d3 += (qa[3] ^ qb[3]).count_ones();
    }
    let mut d = d0 + d1 + d2 + d3;
    for (la, lb) in quads_a.remainder().iter().zip(quads_b.remainder()) {
        d += (la ^ lb).count_ones();
    }
    d
}

/// The word of a flat limb store nearest to `query` in Hamming distance,
/// as `(word index, distance)`: one ascending scan with a strict `<`, so
/// ties keep the lowest index (the priority-encoder rule of a CAM), and
/// `None` on an empty store. `words` holds `limbs_per_word` limbs per
/// stored word, back to back.
///
/// The scan has three codegens, chosen once per scan (not per word, so
/// the popcounts still inline into the loop). The release build targets
/// baseline x86-64, where `count_ones` is a dozen-op bit trick: that is
/// the portable source body. Where the CPU reports `popcnt` the same body
/// runs compiled with the instruction. Where it reports AVX-512F and
/// VPOPCNTDQ, 256-bit words go through an explicit vector kernel that
/// counts eight words per step and hands every block that holds a new
/// best back to the same body. Popcount is exact integer arithmetic and
/// every codegen folds in index order with the same strict `<`: none can
/// differ from another in any bit.
///
/// # Panics
///
/// Panics if `limbs_per_word` is zero, `query` is not `limbs_per_word`
/// long, or `words` is not a whole number of words.
// enw:hot
pub fn nearest_hamming(
    words: &[u64],
    limbs_per_word: usize,
    query: &[u64],
) -> Option<(usize, u32)> {
    assert!(limbs_per_word > 0, "zero-width words");
    assert_eq!(query.len(), limbs_per_word, "hamming length mismatch");
    assert_eq!(words.len() % limbs_per_word, 0, "limb store is not a whole number of words");
    #[cfg(target_arch = "x86_64")]
    if let Some(hit) = nearest_hamming_avx512(words, limbs_per_word, query)
        .or_else(|| nearest_hamming_popcnt(words, limbs_per_word, query))
    {
        return hit;
    }
    nearest_hamming_body(words, limbs_per_word, query)
}

/// [`nearest_hamming`] for 256-bit words as explicit AVX-512 VPOPCNTDQ
/// code, eight words per step; the outer `None` means the words are not
/// 4 limbs wide or this CPU lacks the instructions.
///
/// A step XORs 8 words (4 loads) against the query held twice in one
/// register, counts every limb with `vpopcntq`, folds the limb counts into
/// 8 word distances and compares them with the running best in one mask.
/// Only a block in which some word beats the best is folded again, in
/// index order, by the source body, and so are the last `n % 8` words:
/// the strict-`<`, lowest-index rule is that body's own. Only 256-bit
/// words get this arm because only they have traffic (DESIGN.md, "TCAM
/// search").
#[cfg(target_arch = "x86_64")]
fn nearest_hamming_avx512(
    words: &[u64],
    limbs_per_word: usize,
    query: &[u64],
) -> Option<Option<(usize, u32)>> {
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn scan(words: &[u64], q: &[u64; 4]) -> Option<(usize, u32)> {
        use std::arch::x86_64::*;
        let [q0, q1, q2, q3] = q.map(|l| l as i64);
        let query = _mm512_set_epi64(q3, q2, q1, q0, q3, q2, q1, q0);
        let (blocks, rest) = words.as_chunks::<32>();
        let mut best: Option<(usize, u32)> = None;
        // All ones as unsigned: any distance beats "no best yet".
        let mut bound = _mm512_set1_epi64(-1);
        for (b, block) in blocks.iter().enumerate() {
            let at = block.as_ptr();
            // SAFETY: `block` is one whole 32-limb chunk of `words`, and
            // the four unaligned 8-limb loads at offsets 0, 8, 16 and 24
            // read exactly it; the caller checked the CPU has AVX-512F.
            let (v0, v1, v2, v3) = unsafe {
                (
                    _mm512_loadu_si512(at.cast()),
                    _mm512_loadu_si512(at.add(8).cast()),
                    _mm512_loadu_si512(at.add(16).cast()),
                    _mm512_loadu_si512(at.add(24).cast()),
                )
            };
            // Limb counts, two words per register: words 0|1, 2|3, 4|5, 6|7.
            let p0 = _mm512_popcnt_epi64(_mm512_xor_si512(v0, query));
            let p1 = _mm512_popcnt_epi64(_mm512_xor_si512(v1, query));
            let p2 = _mm512_popcnt_epi64(_mm512_xor_si512(v2, query));
            let p3 = _mm512_popcnt_epi64(_mm512_xor_si512(v3, query));
            // Pairwise limb sums, then the two halves of every word: the 8
            // distances come out in word order 0, 2, 1, 3, 4, 6, 5, 7,
            // which a test of "any lane below the bound" does not see.
            let s01 =
                _mm512_add_epi64(_mm512_unpacklo_epi64(p0, p1), _mm512_unpackhi_epi64(p0, p1));
            let s23 =
                _mm512_add_epi64(_mm512_unpacklo_epi64(p2, p3), _mm512_unpackhi_epi64(p2, p3));
            let distances = _mm512_add_epi64(
                _mm512_shuffle_i64x2::<0b10_00_10_00>(s01, s23),
                _mm512_shuffle_i64x2::<0b11_01_11_01>(s01, s23),
            );
            if _mm512_cmplt_epu64_mask(distances, bound) != 0 {
                if let Some((i, d)) = nearest_fixed::<4>(block, q) {
                    best = Some((8 * b + i, d));
                    bound = _mm512_set1_epi64(i64::from(d));
                }
            }
        }
        let tail = nearest_fixed::<4>(rest, q).map(|(i, d)| (8 * blocks.len() + i, d));
        if tail.is_some_and(|(_, d)| best.is_none_or(|(_, b)| d < b)) {
            tail
        } else {
            best
        }
    }
    if limbs_per_word != 4
        || !std::arch::is_x86_feature_detected!("avx512f")
        || !std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    {
        return None;
    }
    // `query` is 4 limbs: `nearest_hamming` checked it against `limbs_per_word`.
    let q = query.first_chunk()?;
    // SAFETY: `scan` needs nothing of its caller but a CPU with AVX-512F
    // and VPOPCNTDQ, which the lines above have just established; its
    // only unsafe operations are loads inside `words`.
    Some(unsafe { scan(words, q) })
}

/// [`nearest_hamming`] compiled with the `popcnt` instruction; the outer
/// `None` means this CPU does not have it.
#[cfg(target_arch = "x86_64")]
fn nearest_hamming_popcnt(
    words: &[u64],
    limbs_per_word: usize,
    query: &[u64],
) -> Option<Option<(usize, u32)>> {
    #[target_feature(enable = "popcnt")]
    fn scan(words: &[u64], limbs_per_word: usize, query: &[u64]) -> Option<(usize, u32)> {
        nearest_hamming_body(words, limbs_per_word, query)
    }
    if !std::arch::is_x86_feature_detected!("popcnt") {
        return None;
    }
    // SAFETY: `scan` needs nothing of its caller but a CPU with `popcnt`,
    // which the line above has just established; its body is safe code.
    Some(unsafe { scan(words, limbs_per_word, query) })
}

/// The one source body of [`nearest_hamming`], inlined into each codegen
/// (called directly it is the portable one, as the build's target
/// compiles it).
/// The signature widths in use (64/128/256/512 bits) get a body whose
/// limb count is a compile-time constant; every other width runs
/// [`hamming_limbs`] per word.
#[inline(always)]
fn nearest_hamming_body(
    words: &[u64],
    limbs_per_word: usize,
    query: &[u64],
) -> Option<(usize, u32)> {
    match limbs_per_word {
        1 => nearest_fixed::<1>(words, query),
        2 => nearest_fixed::<2>(words, query),
        4 => nearest_fixed::<4>(words, query),
        8 => nearest_fixed::<8>(words, query),
        _ => lowest_minimum(words.chunks_exact(limbs_per_word).map(|w| hamming_limbs(w, query))),
    }
}

#[inline(always)]
fn nearest_fixed<const N: usize>(words: &[u64], query: &[u64]) -> Option<(usize, u32)> {
    // `query` is exactly `N` limbs: `nearest_hamming` checked it against
    // the `limbs_per_word` this arm was chosen by.
    let q: &[u64; N] = query.first_chunk()?;
    let (words, _) = words.as_chunks::<N>();
    lowest_minimum(
        words.iter().map(|w| w.iter().zip(q).map(|(a, b)| (a ^ b).count_ones()).sum::<u32>()),
    )
}

/// Position and value of the smallest distance, the first of equals.
#[inline(always)]
fn lowest_minimum(mut distances: impl Iterator<Item = u32>) -> Option<(usize, u32)> {
    let mut best = (0usize, distances.next()?);
    for (i, d) in distances.enumerate() {
        if d < best.1 {
            best = (i + 1, d);
        }
    }
    Some(best)
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bools)
    }
}

/// Iterator over the bits of a [`BitVec`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    vec: &'a BitVec,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.pos >= self.vec.len() {
            return None;
        }
        let b = self.vec.get(self.pos);
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.vec.len() - self.pos;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130); // spans three limbs
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(63) && !v.get(128));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn hamming_self_is_zero() {
        let v = BitVec::from_bools(&[true, false, true, true]);
        assert_eq!(v.hamming(&v), 0);
    }

    #[test]
    fn hamming_counts_differences() {
        let a = BitVec::from_bools(&[true, false, true, false]);
        let b = BitVec::from_bools(&[false, false, true, true]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(b.hamming(&a), 2);
    }

    #[test]
    fn hamming_across_limb_boundary() {
        let mut a = BitVec::zeros(100);
        let mut b = BitVec::zeros(100);
        a.set(70, true);
        b.set(70, true);
        a.set(99, true);
        assert_eq!(a.hamming(&b), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_length_mismatch_panics() {
        BitVec::zeros(4).hamming(&BitVec::zeros(5));
    }

    #[test]
    fn collect_and_iter_roundtrip() {
        let bits = [true, true, false, true, false];
        let v: BitVec = bits.iter().copied().collect();
        let back: Vec<bool> = v.iter().collect();
        assert_eq!(back, bits);
    }

    #[test]
    fn clearing_a_bit() {
        let mut v = BitVec::from_bools(&[true, true]);
        v.set(0, false);
        assert!(!v.get(0) && v.get(1));
    }

    #[test]
    fn empty_vec() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert!(v.limbs().is_empty());
    }

    #[test]
    fn assign_matches_per_bit_set_and_clears_the_old_contents() {
        for len in [0usize, 1, 63, 64, 65, 130, 256] {
            let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0 || i % 7 == 2).collect();
            let mut by_set = BitVec::zeros(len);
            for (i, &b) in bits.iter().enumerate() {
                by_set.set(i, b);
            }
            let mut assigned = BitVec::zeros(len);
            assigned.assign(std::iter::repeat_n(true, len)); // stale contents to overwrite
            assigned.assign(bits.iter().copied());
            assert_eq!(assigned, by_set, "len {len}");
            assert_eq!(BitVec::from_bools(&bits), by_set, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "exactly len() bits")]
    fn assign_rejects_too_few_bits() {
        BitVec::zeros(70).assign(std::iter::repeat_n(true, 69));
    }

    #[test]
    #[should_panic(expected = "exactly len() bits")]
    fn assign_rejects_too_many_bits() {
        BitVec::zeros(70).assign(std::iter::repeat_n(true, 71));
    }

    /// Per-bit reference scan: lowest index among the nearest words.
    fn naive_nearest(words: &[u64], limbs_per_word: usize, query: &[u64]) -> Option<(usize, u32)> {
        let bit = |limbs: &[u64], i: usize| (limbs[i / 64] >> (i % 64)) & 1;
        words
            .chunks_exact(limbs_per_word)
            .map(|w| {
                (0..64 * limbs_per_word).filter(|&i| bit(w, i) != bit(query, i)).count() as u32
            })
            .enumerate()
            .min_by_key(|&(i, d)| (d, i))
    }

    /// Every codegen this CPU can run, and the dispatch, against the
    /// per-bit scan.
    fn assert_codegens_agree(words: &[u64], limbs_per_word: usize, query: &[u64], what: &str) {
        let expected = naive_nearest(words, limbs_per_word, query);
        assert_eq!(expected.is_none(), words.is_empty(), "{what}");
        assert_eq!(
            nearest_hamming_body(words, limbs_per_word, query),
            expected,
            "portable, {what}"
        );
        #[cfg(target_arch = "x86_64")]
        for (arm, hit) in [
            ("avx512_vpopcntdq", nearest_hamming_avx512(words, limbs_per_word, query)),
            ("popcnt", nearest_hamming_popcnt(words, limbs_per_word, query)),
        ] {
            if let Some(hit) = hit {
                assert_eq!(hit, expected, "{arm}, {what}");
            }
        }
        assert_eq!(nearest_hamming(words, limbs_per_word, query), expected, "dispatched, {what}");
    }

    #[test]
    fn nearest_hamming_codegens_agree_with_each_other_and_a_per_bit_scan() {
        let mut rng = crate::rng::Rng64::new(16);
        // Every fixed-width arm (1, 2, 4, 8 limbs) and the generic one, at
        // lengths on both sides of the AVX-512 arm's 8-word blocks.
        for limbs_per_word in [1usize, 2, 3, 4, 5, 8, 9] {
            for len in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 257, 512, 4099] {
                let mut words: Vec<u64> =
                    (0..len * limbs_per_word).map(|_| rng.next_u64()).collect();
                let query: Vec<u64> = (0..limbs_per_word).map(|_| rng.next_u64()).collect();
                let what = format!("{limbs_per_word} limbs x {len} words");
                assert_codegens_agree(&words, limbs_per_word, &query, &format!("random, {what}"));
                if len > 2 {
                    // The nearest word twice, neither copy first: the
                    // lower index must win the tie.
                    let near: Vec<u64> = query.iter().map(|l| l ^ 0b101).collect();
                    for at in [len / 2, len - 1] {
                        words[at * limbs_per_word..][..limbs_per_word].copy_from_slice(&near);
                    }
                    assert_codegens_agree(&words, limbs_per_word, &query, &format!("tie, {what}"));
                }
            }
        }
        // 256-bit words, placed against the 8-word blocks: every other
        // word is at the full 256 bits, the planted ones nearer.
        let query: [u64; 4] = std::array::from_fn(|_| rng.next_u64());
        let far = query.map(|l| !l);
        let near = query.map(|l| l ^ (1 << 40));
        for (len, at, word, what) in [
            (8, &[6, 2][..], near, "tie inside one block"),
            (16, &[13, 5], near, "tie across two blocks"),
            (17, &[16, 9], near, "tie of a block and the remainder"),
            (4099, &[4098, 4097], near, "tie inside the remainder"),
            (65, &[40, 41, 64], query, "distance 0"),
            (4099, &[], far, "all equal at 256"),
            (512, &(0..512).collect::<Vec<_>>(), near, "all equal at 1"),
        ] {
            let mut words = far.repeat(len);
            for &i in at {
                words[4 * i..][..4].copy_from_slice(&word);
            }
            assert_codegens_agree(&words, 4, &query, &format!("{what}, {len} words"));
        }
    }

    #[test]
    #[should_panic(expected = "whole number of words")]
    fn nearest_hamming_rejects_a_ragged_store() {
        nearest_hamming(&[0; 7], 2, &[0; 2]);
    }

    #[test]
    fn hamming_limbs_matches_per_bit_count() {
        // 9 limbs: exercises both the 4-wide unrolled body and the
        // remainder loop.
        let mut a = BitVec::zeros(9 * 64);
        let mut b = BitVec::zeros(9 * 64);
        let mut expected = 0;
        for i in 0..(9 * 64) {
            if i % 3 == 0 {
                a.set(i, true);
            }
            if i % 5 == 0 {
                b.set(i, true);
            }
            if (i % 3 == 0) != (i % 5 == 0) {
                expected += 1;
            }
        }
        assert_eq!(hamming_limbs(a.limbs(), b.limbs()), expected);
        assert_eq!(a.hamming(&b), expected as usize);
    }
}
