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
use enw_xmann::cost::Cost;

/// Geometry and segmentation of a TCAM array.
///
/// Construct via [`TcamConfig::builder`]; direct struct-literal
/// construction in downstream code is deprecated (it bypasses
/// validation and will stop compiling as fields are added).
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
    /// Starts a validating builder seeded with the default geometry.
    pub fn builder() -> TcamConfigBuilder {
        TcamConfigBuilder { segments: TcamConfig::default().segments }
    }
}

/// Validating builder for [`TcamConfig`].
///
/// `build()` rejects degenerate geometry with a typed
/// [`CamError`](crate::error::CamError) instead of panicking, so search
/// drivers can probe candidate configurations safely.
#[derive(Debug, Clone)]
pub struct TcamConfigBuilder {
    segments: usize,
}

impl TcamConfigBuilder {
    /// Sets the number of match-line segments.
    pub fn segments(mut self, segments: usize) -> Self {
        self.segments = segments;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<TcamConfig, crate::error::CamError> {
        if self.segments == 0 {
            return Err(crate::error::CamError::InvalidConfig {
                reason: "segments must be at least 1",
            });
        }
        Ok(TcamConfig { segments: self.segments })
    }
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
    writes: u64,
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
    /// Panics if `width` or `cfg.segments` is zero.
    pub fn new(width: usize, tech: CellTech, cfg: TcamConfig) -> Self {
        assert!(width > 0, "zero-width TCAM");
        assert!(cfg.segments > 0, "need at least one match-line segment");
        TcamArray {
            width,
            limbs_per_word: width.div_ceil(64),
            tech,
            cfg,
            limbs: Vec::new(),
            len: 0,
            writes: 0,
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

    /// The cell technology in use.
    pub fn tech(&self) -> &CellTech {
        &self.tech
    }

    /// Cumulative cost of all writes and searches.
    pub fn total_cost(&self) -> Cost {
        self.total
    }

    /// Total program operations (for endurance accounting).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Returns `true` once per-cell program counts could exceed the
    /// technology's endurance rating (conservative: assumes writes spread
    /// evenly).
    pub fn endurance_exceeded(&self) -> bool {
        match self.tech.endurance {
            None => false,
            Some(e) => self.len == 0 || self.writes / self.len.max(1) as u64 > e,
        }
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
        self.writes += 1;
        let cost = Cost::new(self.width as f64 * self.tech.write_bit_pj, self.tech.write_word_ns);
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
        self.writes += 1;
        let cost = Cost::new(self.width as f64 * self.tech.write_bit_pj, self.tech.write_word_ns);
        self.total += cost;
        cost
    }

    /// Cost of one parallel search over the whole array.
    ///
    /// With `s` match-line segments, selective precharge evaluates one
    /// segment at a time and kills mismatching lines early; to first order
    /// the expected charged-cell count drops toward `1/s` of the array
    /// while latency grows by one sense stage per extra segment.
    fn search_cost(&self) -> Cost {
        let cells = (self.len * self.width) as f64;
        let s = self.cfg.segments as f64;
        let energy = cells * self.tech.search_bit_pj * (1.0 / s + 0.5 / s.max(1.0) * (s - 1.0) / s);
        let latency = self.tech.search_ns + (s - 1.0) * 0.5 * self.tech.search_ns;
        Cost::new(energy, latency)
    }

    /// Books one search against the array's cumulative cost and returns
    /// that search's cost. Split out from the search entry points so
    /// `TcamBank` can pair it with the `peek_*` match computations while
    /// it sweeps its arrays.
    pub(crate) fn record_search(&mut self) -> Cost {
        let cost = self.search_cost();
        self.total += cost;
        cost
    }

    /// Pure ternary match (no cost accounting): indices of stored words
    /// matching `pattern`. Allocating wrapper around
    /// [`peek_ternary_into`](TcamArray::peek_ternary_into).
    ///
    /// # Panics
    ///
    /// Panics if the pattern width mismatches.
    pub fn peek_ternary(&self, pattern: &TernaryWord) -> Vec<usize> {
        let mut hits = Vec::new();
        self.peek_ternary_into(pattern, &mut hits);
        hits
    }

    /// Pure ternary match appending matching indices to a caller-owned
    /// vector (`hits` is cleared first) — the form the match loop itself
    /// runs in, so repeated searches can reuse one buffer.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width mismatches.
    pub fn peek_ternary_into(&self, pattern: &TernaryWord, hits: &mut Vec<usize>) {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        hits.clear();
        hits.extend(
            self.limbs
                .chunks_exact(self.limbs_per_word)
                .enumerate()
                .filter(|(_, w)| pattern.matches_limbs(w))
                .map(|(i, _)| i),
        );
    }

    /// Exact ternary match of `pattern` against every stored word — one
    /// parallel search.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width mismatches.
    pub fn search_ternary(&mut self, pattern: &TernaryWord) -> (Vec<usize>, Cost) {
        let hits = self.peek_ternary(pattern);
        let cost = self.record_search();
        (hits, cost)
    }

    /// Pure nearest-match computation (no cost accounting): the
    /// minimum-Hamming-distance stored word, ties to the lowest index.
    /// See [`search_nearest`](TcamArray::search_nearest).
    ///
    /// # Panics
    ///
    /// Panics if the query width mismatches.
    pub fn peek_nearest(&self, query: &BitVec) -> Option<NearestHit> {
        assert_eq!(query.len(), self.width, "query width mismatch");
        nearest_hamming(&self.limbs, self.limbs_per_word, query.limbs())
            .map(|(index, distance)| NearestHit { index, distance: distance as usize })
    }

    /// Nearest-match search by match-line discharge-rate sensing: returns
    /// the minimum-Hamming-distance stored word in a single parallel
    /// search.
    ///
    /// # Panics
    ///
    /// Panics if the query width mismatches.
    pub fn search_nearest(&mut self, query: &BitVec) -> (Option<NearestHit>, Cost) {
        let best = self.peek_nearest(query);
        let cost = self.record_search();
        (best, cost)
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
    fn endurance_tracking() {
        let mut tech = cells::fefet_2t();
        tech.endurance = Some(3);
        let mut cam = TcamArray::new(4, tech, TcamConfig::default());
        let (i, _) = cam.write(&bv(&[1, 0, 1, 0]));
        assert!(!cam.endurance_exceeded());
        for _ in 0..5 {
            cam.rewrite(i, &bv(&[0, 1, 0, 1]));
        }
        assert!(cam.endurance_exceeded());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_write_panics() {
        TcamArray::new(8, cells::cmos_16t(), TcamConfig::default()).write(&BitVec::zeros(4));
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(TcamConfig::builder().build().unwrap(), TcamConfig::default());
    }

    #[test]
    fn builder_rejects_zero_segments() {
        let err = TcamConfig::builder().segments(0).build().unwrap_err();
        assert!(err.to_string().contains("segments"), "{err}");
    }

    #[test]
    fn builder_sets_segments() {
        assert_eq!(TcamConfig::builder().segments(4).build().unwrap().segments, 4);
    }
}
