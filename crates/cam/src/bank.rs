//! Banked TCAM organizations (paper Sec. IV-C: a compact cell "could also
//! enable larger MANN memories" — but a single array's word-line/match-
//! line lengths are bounded, so large memories are built from banks
//! searched in parallel and combined by a global priority stage).

use crate::array::{NearestHit, TcamArray, TcamConfig};
use crate::cells::CellTech;
use enw_mann::encoding::TernaryWord;
use enw_numerics::bits::BitVec;
use enw_xmann::cost::Cost;

/// A bank of equally sized TCAM arrays behaving as one large memory.
///
/// Searches broadcast to every array concurrently (latency = one array
/// search + one combine stage; energy = sum over arrays), and writes fill
/// arrays in order. That concurrency is the modelled hardware's and lives
/// in the booked [`Cost`]; the host sweeps the arrays one after another
/// on the calling thread, since a whole-bank scan costs less than waking
/// a worker for it.
///
/// # Example
///
/// ```
/// use enw_cam::bank::TcamBank;
/// use enw_cam::{array::TcamConfig, cells};
/// use enw_numerics::bits::BitVec;
///
/// let mut bank = TcamBank::new(16, 4, cells::fefet_2t(), TcamConfig::default());
/// for i in 0..6 {
///     let word: BitVec = (0..16).map(|b| (b + i) % 3 == 0).collect();
///     bank.write(word);
/// }
/// let q = BitVec::zeros(16);
/// let (hit, _cost) = bank.search_nearest(&q);
/// assert!(hit.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TcamBank {
    arrays: Vec<TcamArray>,
    rows_per_array: usize,
    cfg: TcamConfig,
    combine_stage_ns: f64,
    total: Cost,
}

impl TcamBank {
    /// An empty bank of arrays with `rows_per_array` capacity each.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_array` is zero (array construction panics on
    /// zero width).
    pub fn new(width: usize, rows_per_array: usize, tech: CellTech, cfg: TcamConfig) -> Self {
        assert!(rows_per_array > 0, "arrays need capacity");
        TcamBank {
            arrays: vec![TcamArray::new(width, tech, cfg)],
            rows_per_array,
            cfg,
            combine_stage_ns: 0.5,
            total: Cost::zero(),
        }
    }

    /// Word width.
    pub fn width(&self) -> usize {
        self.arrays[0].width()
    }

    /// Total stored words.
    pub fn len(&self) -> usize {
        self.arrays.iter().map(|a| a.len()).sum()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physical arrays currently allocated.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Cumulative hardware cost.
    pub fn total_cost(&self) -> Cost {
        self.total
    }

    /// Appends a word, allocating a new array when the current one fills.
    /// Returns the global index.
    ///
    /// # Panics
    ///
    /// Panics if the word width mismatches.
    pub fn write(&mut self, word: BitVec) -> (usize, Cost) {
        if self.arrays.last().is_none_or(|a| a.len() >= self.rows_per_array) {
            let tech = *self.arrays[0].tech();
            self.arrays.push(TcamArray::new(self.width(), tech, self.cfg));
        }
        let bank_idx = self.arrays.len() - 1;
        let (local, cost) = self.arrays[bank_idx].write(&word);
        self.total += cost;
        (bank_idx * self.rows_per_array + local, cost)
    }

    /// Books the deterministic host-side traffic of one whole-bank
    /// search: every stored limb is read once, plus the query/pattern
    /// words; the write side is the per-word match-line readout.
    fn record_search_traffic(&self, name: &'static str, query_words: u64) {
        let bits = (self.len() * self.width()) as u64;
        enw_trace::record_span_io(
            name,
            bits,
            bits / 8 + query_words * (self.width() as u64).div_ceil(8),
            (self.len() as u64).div_ceil(8),
        );
    }

    /// Nearest-Hamming search across every array in parallel; ties break
    /// toward the lowest global index (the global priority encoder).
    pub fn search_nearest(&mut self, query: &BitVec) -> (Option<NearestHit>, Cost) {
        self.record_search_traffic("cam/search_nearest", 1);
        let mut best: Option<NearestHit> = None;
        let mut energy = 0.0;
        let mut latency: f64 = 0.0;
        for (b, arr) in self.arrays.iter_mut().enumerate() {
            let hit = arr.peek_nearest(query);
            let cost = arr.record_search();
            energy += cost.energy_pj;
            latency = latency.max(cost.latency_ns); // concurrent arrays
            if let Some(h) = hit {
                // Arrays are swept in ascending global index, so a strict
                // `<` keeps the lowest index among equal distances.
                if best.is_none_or(|cur| h.distance < cur.distance) {
                    best = Some(NearestHit { index: b * self.rows_per_array + h.index, ..h });
                }
            }
        }
        let cost = Cost::new(energy, latency + self.combine_stage_ns);
        self.total += cost;
        (best, cost)
    }

    /// Ternary match across all arrays; returns global indices.
    pub fn search_ternary(&mut self, pattern: &TernaryWord) -> (Vec<usize>, Cost) {
        // A ternary pattern ships two words (bits + care mask).
        self.record_search_traffic("cam/search_ternary", 2);
        let mut hits = Vec::new();
        let mut local = Vec::new();
        let mut energy = 0.0;
        let mut latency: f64 = 0.0;
        for (b, arr) in self.arrays.iter_mut().enumerate() {
            arr.peek_ternary_into(pattern, &mut local);
            let cost = arr.record_search();
            energy += cost.energy_pj;
            latency = latency.max(cost.latency_ns);
            hits.extend(local.iter().map(|i| b * self.rows_per_array + i));
        }
        let cost = Cost::new(energy, latency + self.combine_stage_ns);
        self.total += cost;
        (hits, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;
    use enw_numerics::rng::Rng64;

    fn word(bits: usize, rng: &mut Rng64) -> BitVec {
        (0..bits).map(|_| rng.bernoulli(0.5)).collect()
    }

    #[test]
    fn bank_grows_beyond_one_array() {
        let mut rng = Rng64::new(1);
        let mut bank = TcamBank::new(32, 4, cells::cmos_16t(), TcamConfig::default());
        for _ in 0..10 {
            bank.write(word(32, &mut rng));
        }
        assert_eq!(bank.len(), 10);
        assert_eq!(bank.array_count(), 3); // 4 + 4 + 2
    }

    #[test]
    fn global_indices_are_stable() {
        let mut rng = Rng64::new(2);
        let mut bank = TcamBank::new(32, 2, cells::cmos_16t(), TcamConfig::default());
        let mut words = Vec::new();
        for _ in 0..5 {
            let w = word(32, &mut rng);
            let (idx, _) = bank.write(w.clone());
            words.push((idx, w));
        }
        for (idx, w) in &words {
            let (hit, _) = bank.search_nearest(w);
            assert_eq!(hit.expect("stored").index, *idx);
        }
    }

    #[test]
    fn banked_search_matches_flat_array() {
        let mut rng = Rng64::new(3);
        let mut bank = TcamBank::new(48, 8, cells::cmos_16t(), TcamConfig::default());
        let mut flat = TcamArray::new(48, cells::cmos_16t(), TcamConfig::default());
        for _ in 0..30 {
            let w = word(48, &mut rng);
            flat.write(&w);
            bank.write(w);
        }
        for _ in 0..10 {
            let q = word(48, &mut rng);
            let (bh, _) = bank.search_nearest(&q);
            let (fh, _) = flat.search_nearest(&q);
            assert_eq!(bh.expect("non-empty").distance, fh.expect("non-empty").distance);
            assert_eq!(bh.expect("non-empty").index, fh.expect("non-empty").index);
        }
    }

    #[test]
    fn latency_stays_flat_as_banks_grow() {
        // The capacity-scaling argument: more banks cost energy, not
        // search latency (arrays search concurrently).
        let mut rng = Rng64::new(4);
        let mut small = TcamBank::new(32, 64, cells::fefet_2t(), TcamConfig::default());
        let mut large = TcamBank::new(32, 64, cells::fefet_2t(), TcamConfig::default());
        for _ in 0..32 {
            small.write(word(32, &mut rng));
        }
        for _ in 0..512 {
            large.write(word(32, &mut rng));
        }
        let q = word(32, &mut rng);
        let (_, cs) = small.search_nearest(&q);
        let (_, cl) = large.search_nearest(&q);
        assert_eq!(cs.latency_ns, cl.latency_ns);
        assert!(cl.energy_pj > 10.0 * cs.energy_pj);
    }

    #[test]
    fn ternary_search_spans_banks() {
        use enw_mann::encoding::{cube_pattern, encode_levels};
        let mut bank = TcamBank::new(8, 2, cells::cmos_16t(), TcamConfig::default());
        for a in 0..3u32 {
            for b in 0..2u32 {
                bank.write(encode_levels(&[a, b], 4));
            }
        }
        let (hits, _) = bank.search_ternary(&cube_pattern(&[1, 0], 1, 4));
        // Levels within Linf radius 1 of (1,0): a ∈ {0,1,2}, b ∈ {0,1} → all 6.
        assert_eq!(hits.len(), 6);
    }
}
