//! The TCAM array: ternary-match and nearest-Hamming searches with
//! match-line energy/latency accounting (paper Sec. IV).
//!
//! Two search styles map to the paper's two encoding families:
//!
//! * [`TcamArray::search_ternary`] — exact ternary match (RENE range
//!   queries): every stored word either matches the query pattern or not.
//! * [`TcamArray::search_nearest`] — degree-of-match sensing: the match
//!   line of a word with more mismatched bits discharges faster, so the
//!   array returns the minimum-Hamming-distance entry in a *single*
//!   parallel search (the LSH-MANN mode of ref. \[9\]).

use crate::cells::CellTech;
use enw_mann::encoding::TernaryWord;
use enw_numerics::bits::{nearest_hamming, BitVec};
use enw_numerics::error::{check, ConfigError};
use enw_xmann::cost::Cost;

/// Geometry and segmentation of a TCAM array. Write it as a struct
/// literal and check it with [`validate`](TcamConfig::validate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamConfig {
    /// Match-line segments: selective precharge evaluates segments
    /// sequentially and aborts on mismatch, trading latency for energy.
    /// 1 = conventional monolithic match lines.
    pub segments: usize,
}

impl Default for TcamConfig {
    fn default() -> Self {
        TcamConfig { segments: 1 }
    }
}

impl TcamConfig {
    /// Checks the geometry: at least one match-line segment.
    /// [`TcamArray::new`] and [`TcamBank::new`](crate::bank::TcamBank::new)
    /// panic on what this rejects.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(self.segments > 0, "segments must be at least 1")
    }
}

/// Cost of programming one `width`-bit word.
pub(crate) fn write_cost(width: usize, tech: &CellTech) -> Cost {
    Cost::new(width as f64 * tech.write_bit_pj, tech.write_word_ns)
}

/// Cost of one parallel search over an array holding `words` words.
///
/// With `s` match-line segments, selective precharge evaluates one
/// segment at a time and kills mismatching lines early; to first order
/// the expected charged-cell count drops toward `1/s` of the array
/// while latency grows by one sense stage per extra segment.
pub(crate) fn search_cost(words: usize, width: usize, tech: &CellTech, cfg: TcamConfig) -> Cost {
    let cells = (words * width) as f64;
    let s = cfg.segments as f64;
    let energy = cells * tech.search_bit_pj * (1.0 / s + 0.5 / s.max(1.0) * (s - 1.0) / s);
    let latency = tech.search_ns + (s - 1.0) * 0.5 * tech.search_ns;
    Cost::new(energy, latency)
}

/// Indices of the words in `limbs` (`limbs_per_word` limbs each) that
/// `pattern` matches, in index order.
pub(crate) fn ternary_hits(
    limbs: &[u64],
    limbs_per_word: usize,
    pattern: &TernaryWord,
) -> Vec<usize> {
    (limbs.chunks_exact(limbs_per_word).enumerate())
        .filter(|(_, w)| pattern.matches_limbs(w))
        .map(|(i, _)| i)
        .collect()
}

/// A ternary CAM array of fixed word width.
///
/// # Example
///
/// ```
/// use enw_cam::array::{TcamArray, TcamConfig};
/// use enw_cam::cells;
/// use enw_numerics::bits::BitVec;
///
/// let mut cam = TcamArray::new(64, cells::cmos_16t(), TcamConfig::default());
/// cam.write(&BitVec::from_bools(&vec![true; 64]));
/// let (hit, _cost) = cam.search_nearest(&BitVec::from_bools(&vec![true; 64]));
/// assert_eq!(hit.expect("non-empty").distance, 0);
/// ```
#[derive(Debug, Clone)]
pub struct TcamArray {
    width: usize,
    /// `u64` limbs per stored word (`width.div_ceil(64)`).
    limbs_per_word: usize,
    tech: CellTech,
    cfg: TcamConfig,
    /// All stored words' limbs, contiguous (`len * limbs_per_word`).
    /// One flat buffer instead of a `Vec<BitVec>` keeps a whole-array
    /// search a single sequential sweep — no per-word pointer chase —
    /// which is what lets the limb-wise match kernels stream.
    limbs: Vec<u64>,
    len: usize,
    total: Cost,
}

/// Result of a nearest-match search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NearestHit {
    /// Index of the best-matching stored word (lowest index on ties,
    /// matching the priority encoder of real arrays).
    pub index: usize,
    /// Hamming distance of the match.
    pub distance: usize,
}

impl TcamArray {
    /// An empty array of `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or [`TcamConfig::validate`] rejects `cfg`.
    pub fn new(width: usize, tech: CellTech, cfg: TcamConfig) -> Self {
        assert!(width > 0, "zero-width TCAM");
        let geometry = cfg.validate();
        assert!(geometry.is_ok(), "need at least one match-line segment: {geometry:?}");
        TcamArray {
            width,
            limbs_per_word: width.div_ceil(64),
            tech,
            cfg,
            limbs: Vec::new(),
            len: 0,
            total: Cost::zero(),
        }
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stored word count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative cost of all writes and searches.
    pub fn total_cost(&self) -> Cost {
        self.total
    }

    /// Appends a stored word; returns its index and the write cost.
    ///
    /// # Panics
    ///
    /// Panics if the word width mismatches.
    pub fn write(&mut self, word: &BitVec) -> (usize, Cost) {
        assert_eq!(word.len(), self.width, "word width mismatch");
        self.limbs.extend_from_slice(word.limbs());
        self.len += 1;
        let cost = write_cost(self.width, &self.tech);
        self.total += cost;
        (self.len - 1, cost)
    }

    /// Overwrites a stored word in place.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the width mismatches.
    pub fn rewrite(&mut self, index: usize, word: &BitVec) -> Cost {
        assert!(index < self.len, "index out of range");
        assert_eq!(word.len(), self.width, "word width mismatch");
        let lpw = self.limbs_per_word;
        self.limbs[index * lpw..(index + 1) * lpw].copy_from_slice(word.limbs());
        let cost = write_cost(self.width, &self.tech);
        self.total += cost;
        cost
    }

    /// Books one search against the array's cumulative cost and returns
    /// that search's cost.
    fn record_search(&mut self) -> Cost {
        let cost = search_cost(self.len, self.width, &self.tech, self.cfg);
        self.total += cost;
        cost
    }

    /// Exact ternary match of `pattern` against every stored word — one
    /// parallel search.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width mismatches.
    pub fn search_ternary(&mut self, pattern: &TernaryWord) -> (Vec<usize>, Cost) {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        let hits = ternary_hits(&self.limbs, self.limbs_per_word, pattern);
        (hits, self.record_search())
    }

    /// Nearest-match search by match-line discharge-rate sensing: returns
    /// the minimum-Hamming-distance stored word (the lowest index on
    /// ties) in a single parallel search.
    ///
    /// # Panics
    ///
    /// Panics if the query width mismatches.
    pub fn search_nearest(&mut self, query: &BitVec) -> (Option<NearestHit>, Cost) {
        assert_eq!(query.len(), self.width, "query width mismatch");
        let best = nearest_hamming(&self.limbs, self.limbs_per_word, query.limbs())
            .map(|(index, distance)| NearestHit { index, distance: distance as usize });
        (best, self.record_search())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;
    use enw_mann::encoding::{cube_pattern, encode_levels};

    fn bv(bits: &[u8]) -> BitVec {
        BitVec::from_bools(&bits.iter().map(|&b| b == 1).collect::<Vec<_>>())
    }

    #[test]
    fn nearest_finds_minimum_hamming() {
        let mut cam = TcamArray::new(4, cells::cmos_16t(), TcamConfig::default());
        cam.write(&bv(&[1, 1, 1, 1]));
        cam.write(&bv(&[0, 0, 0, 0]));
        cam.write(&bv(&[1, 1, 0, 0]));
        let (hit, _) = cam.search_nearest(&bv(&[1, 0, 0, 0]));
        let hit = hit.expect("non-empty");
        assert_eq!(hit.index, 1);
        assert_eq!(hit.distance, 1);
    }

    #[test]
    fn nearest_on_empty_array_is_none() {
        let mut cam = TcamArray::new(4, cells::cmos_16t(), TcamConfig::default());
        let (hit, _) = cam.search_nearest(&bv(&[1, 0, 0, 0]));
        assert!(hit.is_none());
    }

    #[test]
    fn ternary_search_returns_all_matches() {
        let mut cam = TcamArray::new(8, cells::cmos_16t(), TcamConfig::default());
        // Store BRGC-encoded levels 3, 5, 12 (4 bits, 2 dims of 1 value? —
        // use 2-dim levels of 4 bits for an 8-bit word).
        cam.write(&encode_levels(&[3, 5], 4));
        cam.write(&encode_levels(&[4, 5], 4));
        cam.write(&encode_levels(&[12, 1], 4));
        let pattern = cube_pattern(&[3, 5], 1, 4);
        let (hits, _) = cam.search_ternary(&pattern);
        assert!(hits.contains(&0));
        assert!(hits.contains(&1));
        assert!(!hits.contains(&2));
    }

    #[test]
    fn search_cost_scales_with_stored_words() {
        let mut small = TcamArray::new(64, cells::cmos_16t(), TcamConfig::default());
        let mut large = TcamArray::new(64, cells::cmos_16t(), TcamConfig::default());
        for _ in 0..10 {
            small.write(&BitVec::zeros(64));
        }
        for _ in 0..100 {
            large.write(&BitVec::zeros(64));
        }
        let q = BitVec::zeros(64);
        let (_, cs) = small.search_nearest(&q);
        let (_, cl) = large.search_nearest(&q);
        assert!((cl.energy_pj / cs.energy_pj - 10.0).abs() < 0.1);
        // Latency is a single parallel evaluation — independent of rows.
        assert_eq!(cs.latency_ns, cl.latency_ns);
    }

    #[test]
    fn fefet_array_cheaper_per_search() {
        let mut cmos = TcamArray::new(64, cells::cmos_16t(), TcamConfig::default());
        let mut fefet = TcamArray::new(64, cells::fefet_2t(), TcamConfig::default());
        for _ in 0..32 {
            cmos.write(&BitVec::zeros(64));
            fefet.write(&BitVec::zeros(64));
        }
        let q = BitVec::zeros(64);
        let (_, cc) = cmos.search_nearest(&q);
        let (_, cf) = fefet.search_nearest(&q);
        assert!((cc.energy_pj / cf.energy_pj - 2.4).abs() < 0.05);
        assert!((cc.latency_ns / cf.latency_ns - 1.1).abs() < 0.05);
    }

    #[test]
    fn segmentation_saves_energy_costs_latency() {
        let mut mono = TcamArray::new(64, cells::cmos_16t(), TcamConfig { segments: 1 });
        let mut seg = TcamArray::new(64, cells::cmos_16t(), TcamConfig { segments: 4 });
        for _ in 0..32 {
            mono.write(&BitVec::zeros(64));
            seg.write(&BitVec::zeros(64));
        }
        let q = BitVec::zeros(64);
        let (_, cm) = mono.search_nearest(&q);
        let (_, cs) = seg.search_nearest(&q);
        assert!(cs.energy_pj < cm.energy_pj);
        assert!(cs.latency_ns > cm.latency_ns);
    }

    #[test]
    fn rewrite_replaces_word() {
        let mut cam = TcamArray::new(4, cells::cmos_16t(), TcamConfig::default());
        let (i, _) = cam.write(&bv(&[1, 1, 1, 1]));
        cam.rewrite(i, &bv(&[0, 0, 0, 0]));
        let (hit, _) = cam.search_nearest(&bv(&[0, 0, 0, 0]));
        assert_eq!(hit.expect("non-empty").distance, 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_write_panics() {
        TcamArray::new(8, cells::cmos_16t(), TcamConfig::default()).write(&BitVec::zeros(4));
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(TcamConfig::default().validate(), Ok(()));
    }

    #[test]
    fn builder_rejects_zero_segments() {
        let err = TcamConfig { segments: 0 }.validate().unwrap_err();
        assert!(err.to_string().contains("segments"), "{err}");
    }

    #[test]
    fn builder_sets_segments() {
        assert_eq!(TcamConfig { segments: 4 }.validate(), Ok(()));
    }
}
