//! Banked TCAM organizations (paper Sec. IV-C: a compact cell "could also
//! enable larger MANN memories" — but a single array's word-line/match-
//! line lengths are bounded, so large memories are built from banks
//! searched in parallel and combined by a global priority stage).
//!
//! The host mirrors that organization: the bank's words live in one limb
//! store, each array is a `rows_per_array` window of it that books its
//! own search cost, and a nearest search sweeps the store in fixed
//! [`CHUNK_WORDS`]-word chunks dealt across the `enw-parallel` pool, then
//! folds the chunk hits in order — the global priority stage.

use crate::array::{search_cost, ternary_hits, write_cost, NearestHit, TcamConfig};
use crate::cells::CellTech;
use enw_mann::encoding::TernaryWord;
use enw_numerics::bits::{nearest_hamming, BitVec};
use enw_xmann::cost::Cost;

/// Words per chunk of a nearest search: a shape-only constant. Chunk `c`
/// runs on participant `c % slots` of the pool, so at a fixed thread
/// count each core rescans the same chunks every search and keeps them
/// in its own L2 — 512 KiB a core for `tcam_fewshot`'s 1 MiB bank at two
/// threads. A bank of one chunk searches on the calling thread.
pub const CHUNK_WORDS: usize = 4096;

/// A bank of equally sized TCAM arrays behaving as one large memory.
///
/// Searches broadcast to every array concurrently (latency = one array
/// search + one combine stage; energy = sum over arrays), and writes fill
/// arrays in order. That concurrency is the modelled hardware's and lives
/// in the booked [`Cost`]. On the host, a bank of more than
/// [`CHUNK_WORDS`] words is swept on every pool participant at once;
/// hits, costs and totals are the same bits at any thread count.
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
    width: usize,
    /// `u64` limbs per stored word (`width.div_ceil(64)`).
    limbs_per_word: usize,
    rows_per_array: usize,
    tech: CellTech,
    cfg: TcamConfig,
    combine_stage_ns: f64,
    /// Every stored word's limbs in global index order; array `a` is
    /// words `a * rows_per_array..` of it.
    limbs: Vec<u64>,
    /// The last nearest search's hit in each chunk, in chunk order. Grown
    /// by `write`, so a search allocates nothing.
    chunk_hits: Vec<Option<(usize, u32)>>,
    total: Cost,
}

impl TcamBank {
    /// An empty bank of arrays with `rows_per_array` capacity each.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `rows_per_array` is zero, or
    /// [`TcamConfig::validate`] rejects `cfg`.
    pub fn new(width: usize, rows_per_array: usize, tech: CellTech, cfg: TcamConfig) -> Self {
        assert!(rows_per_array > 0, "arrays need capacity");
        assert!(width > 0, "zero-width TCAM");
        let geometry = cfg.validate();
        assert!(geometry.is_ok(), "need at least one match-line segment: {geometry:?}");
        TcamBank {
            width,
            limbs_per_word: width.div_ceil(64),
            rows_per_array,
            tech,
            cfg,
            combine_stage_ns: 0.5,
            limbs: Vec::new(),
            chunk_hits: Vec::new(),
            total: Cost::zero(),
        }
    }

    /// Word width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total stored words.
    pub fn len(&self) -> usize {
        self.limbs.len() / self.limbs_per_word
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of physical arrays currently allocated (an empty bank has
    /// one).
    pub fn array_count(&self) -> usize {
        self.len().div_ceil(self.rows_per_array).max(1)
    }

    /// Cumulative hardware cost.
    pub fn total_cost(&self) -> Cost {
        self.total
    }

    /// Appends a word, opening a new array when the current one fills.
    /// Returns the global index.
    ///
    /// # Panics
    ///
    /// Panics if the word width mismatches.
    pub fn write(&mut self, word: BitVec) -> (usize, Cost) {
        assert_eq!(word.len(), self.width, "word width mismatch");
        let index = self.len();
        self.limbs.extend_from_slice(word.limbs());
        self.chunk_hits.resize((index + 1).div_ceil(CHUNK_WORDS), None);
        let cost = write_cost(self.width, &self.tech);
        self.total += cost;
        (index, cost)
    }

    /// Books one whole-bank search: each array's own search cost, in
    /// array order — energy sums over the arrays, latency is one array's
    /// (they search concurrently) plus the combine stage.
    fn record_search(&mut self) -> Cost {
        let (mut energy, mut latency) = (0.0, 0.0f64);
        for a in 0..self.array_count() {
            let words = (self.len() - a * self.rows_per_array).min(self.rows_per_array);
            let cost = search_cost(words, self.width, &self.tech, self.cfg);
            energy += cost.energy_pj;
            latency = latency.max(cost.latency_ns);
        }
        let cost = Cost::new(energy, latency + self.combine_stage_ns);
        self.total += cost;
        cost
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
    ///
    /// # Panics
    ///
    /// Panics if the query width mismatches.
    pub fn search_nearest(&mut self, query: &BitVec) -> (Option<NearestHit>, Cost) {
        assert_eq!(query.len(), self.width, "query width mismatch");
        self.record_search_traffic("cam/search_nearest", 1);
        let (limbs, lpw, q) = (&self.limbs[..], self.limbs_per_word, query.limbs());
        let chunk = CHUNK_WORDS * lpw;
        enw_parallel::run_chunks_mut(&mut self.chunk_hits, 1, |c, hit| {
            hit[0] = nearest_hamming(&limbs[c * chunk..limbs.len().min((c + 1) * chunk)], lpw, q);
        });
        // Each chunk's hit is its lowest index at its least distance, and
        // a strict `<` over the chunks in order keeps the lowest global
        // index among equal distances.
        let mut best: Option<NearestHit> = None;
        for (c, hit) in self.chunk_hits.iter().enumerate() {
            if let Some((index, distance)) = *hit {
                if best.is_none_or(|b| (distance as usize) < b.distance) {
                    best = Some(NearestHit {
                        index: c * CHUNK_WORDS + index,
                        distance: distance as usize,
                    });
                }
            }
        }
        (best, self.record_search())
    }

    /// Ternary match across all arrays; returns global indices.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width mismatches.
    pub fn search_ternary(&mut self, pattern: &TernaryWord) -> (Vec<usize>, Cost) {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        // A ternary pattern ships two words (bits + care mask).
        self.record_search_traffic("cam/search_ternary", 2);
        let hits = ternary_hits(&self.limbs, self.limbs_per_word, pattern);
        (hits, self.record_search())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::TcamArray;
    use crate::cells;
    use enw_numerics::rng::Rng64;

    fn word(bits: usize, rng: &mut Rng64) -> BitVec {
        (0..bits).map(|_| rng.bernoulli(0.5)).collect()
    }

    /// The sweep the bank ran before its words shared one store, kept as
    /// the oracle: one `TcamArray` per `rows_per_array` words, each
    /// searched and booked in turn, hits folded in array order with a
    /// strict `<`.
    struct PerArraySweep {
        arrays: Vec<TcamArray>,
        rows_per_array: usize,
        total: Cost,
    }

    impl PerArraySweep {
        fn new(width: usize, rows_per_array: usize) -> Self {
            let array = TcamArray::new(width, cells::fefet_2t(), TcamConfig::default());
            PerArraySweep { arrays: vec![array], rows_per_array, total: Cost::zero() }
        }

        fn write(&mut self, word: &BitVec) {
            if self.arrays.last().is_none_or(|a| a.len() >= self.rows_per_array) {
                let width = self.arrays[0].width();
                self.arrays.push(TcamArray::new(width, cells::fefet_2t(), TcamConfig::default()));
            }
            self.total += self.arrays.last_mut().unwrap().write(word).1;
        }

        /// Folds each array's search cost; `hit` sees each array's result.
        fn sweep(&mut self, mut hit: impl FnMut(usize, &mut TcamArray) -> Cost) -> Cost {
            let (mut energy, mut latency) = (0.0, 0.0f64);
            for (a, arr) in self.arrays.iter_mut().enumerate() {
                let cost = hit(a * self.rows_per_array, arr);
                energy += cost.energy_pj;
                latency = latency.max(cost.latency_ns);
            }
            let cost = Cost::new(energy, latency + 0.5);
            self.total += cost;
            cost
        }

        fn search_nearest(&mut self, query: &BitVec) -> (Option<NearestHit>, Cost) {
            let mut best: Option<NearestHit> = None;
            let cost = self.sweep(|first, arr| {
                let (hit, cost) = arr.search_nearest(query);
                if let Some(h) = hit {
                    if best.is_none_or(|cur| h.distance < cur.distance) {
                        best = Some(NearestHit { index: first + h.index, ..h });
                    }
                }
                cost
            });
            (best, cost)
        }

        fn search_ternary(&mut self, pattern: &TernaryWord) -> (Vec<usize>, Cost) {
            let mut hits = Vec::new();
            let cost = self.sweep(|first, arr| {
                let (local, cost) = arr.search_ternary(pattern);
                hits.extend(local.iter().map(|i| first + i));
                cost
            });
            (hits, cost)
        }
    }

    fn bits(c: Cost) -> (u64, u64) {
        (c.energy_pj.to_bits(), c.latency_ns.to_bits())
    }

    /// Every search against the per-array oracle at 1, 2, 3 and 8
    /// threads: banks on and off the array (512) and chunk (4,096)
    /// boundaries, 1-, 2- and 4-limb words, ties planted inside a chunk,
    /// across an array boundary and across chunk boundaries, and
    /// all-equal stores at distance 0 and at the full width.
    #[test]
    fn chunked_sweep_matches_the_per_array_oracle_at_any_thread_count() {
        const SIZES: [usize; 10] =
            [0, 1, 511, 512, 513, 4095, 4096, 4097, 3 * CHUNK_WORDS + 17, 32_768];
        const TIES: [(usize, usize); 4] = [(5, 9), (511, 512), (4095, 4096), (4090, 12_290)];
        for width in [64, 128, 256] {
            let mut rng = Rng64::new(width as u64);
            for n in SIZES {
                let mut words: Vec<BitVec> = (0..n).map(|_| word(width, &mut rng)).collect();
                let mut queries = vec![word(width, &mut rng)];
                for (a, b) in TIES.into_iter().filter(|&(_, b)| b < n) {
                    let planted = word(width, &mut rng);
                    (words[a], words[b]) = (planted.clone(), planted.clone());
                    let mut near = planted.clone();
                    near.set(0, !near.get(0));
                    queries.extend([planted, near]);
                }
                let all_equal = word(width, &mut rng);
                let complement: BitVec = all_equal.iter().map(|b| !b).collect();
                // Matches every word of the all-equal store, few others.
                let pattern = TernaryWord::new(all_equal.clone(), word(width, &mut rng));
                for store in [words, vec![all_equal.clone(); n]] {
                    let mut oracle = PerArraySweep::new(width, 512);
                    let mut bank =
                        TcamBank::new(width, 512, cells::fefet_2t(), TcamConfig::default());
                    for w in &store {
                        oracle.write(w);
                        bank.write(w.clone());
                    }
                    let queries = [&queries[..], &[all_equal.clone(), complement.clone()]].concat();
                    let want: Vec<_> = queries.iter().map(|q| oracle.search_nearest(q)).collect();
                    let want_ternary = oracle.search_ternary(&pattern);
                    for threads in [1, 2, 3, 8] {
                        let mut bank = bank.clone();
                        enw_parallel::with_threads(threads, || {
                            for (q, (hit, cost)) in queries.iter().zip(&want) {
                                let (got, got_cost) = bank.search_nearest(q);
                                let at = format!("{n} x {width} bits, {threads} thread(s)");
                                assert_eq!(got, *hit, "{at}");
                                assert_eq!(bits(got_cost), bits(*cost), "{at}");
                            }
                            let (got, cost) = bank.search_ternary(&pattern);
                            assert_eq!(
                                (got, bits(cost)),
                                (want_ternary.0.clone(), bits(want_ternary.1))
                            );
                        });
                        assert_eq!(bits(bank.total_cost()), bits(oracle.total));
                    }
                    if n > 0 && store[0] == all_equal {
                        let full = NearestHit { index: 0, distance: width };
                        assert_eq!(bank.search_nearest(&complement).0, Some(full));
                    }
                }
            }
        }
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
