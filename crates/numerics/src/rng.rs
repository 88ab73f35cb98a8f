//! Deterministic pseudo-random number generation.
//!
//! All stochastic processes in the workspace — weight initialization,
//! stochastic pulse trains, device noise, trace generation — draw from
//! [`Rng64`], a xoshiro256** generator seeded through SplitMix64. Two runs
//! with the same seed produce identical experiment output on every platform.

/// A deterministic xoshiro256** pseudo-random number generator.
///
/// xoshiro256** is a small, fast, high-quality generator (period 2^256 − 1)
/// suitable for simulation workloads. It is **not** cryptographically secure.
///
/// # Example
///
/// ```
/// use enw_numerics::rng::Rng64;
///
/// let mut a = Rng64::new(7);
/// let mut b = Rng64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng64 {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four words of state are expanded from the seed with SplitMix64,
    /// which guarantees a well-mixed, non-zero state for every seed
    /// (including zero).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng64 { state: [next_sm(), next_sm(), next_sm(), next_sm()], gauss_spare: None }
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → mantissa-exact uniform double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "invalid range");
        lo + (hi - lo) * self.uniform()
    }

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so results are exactly
    /// uniform.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
            // Rejected a biased sample; retry (vanishingly rare for small n).
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Returns a standard normal (mean 0, variance 1) sample via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box–Muller on two uniforms; u1 must be non-zero for ln().
        let mut u1 = self.uniform();
        while u1 <= f64::EPSILON {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Returns a normal sample with the given `mean` and `std`.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` without replacement.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        // Partial Fisher–Yates over an index vector.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Jumps `k` outputs ahead: the generator ends where `k` calls of
    /// [`next_u64`](Rng64::next_u64) would leave it, in `O(log k)` time,
    /// so fixed chunks of one stream can be drawn apart. A pending
    /// Box–Muller spare stays pending.
    ///
    /// xoshiro256**'s state transition is linear over GF(2): the jump
    /// multiplies the state by the transition matrix's powers `T^(2^i)`
    /// for the set bits of `k`, built once per process at the first
    /// non-zero jump.
    pub fn advance(&mut self, k: u64) {
        let mut bits = k;
        while bits != 0 {
            self.state = transition_powers()[bits.trailing_zeros() as usize].apply(self.state);
            bits &= bits - 1;
        }
    }

    /// Derives an independent child generator (for parallel sub-experiments).
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }

    /// Captures the generator's full state for checkpointing. Restoring
    /// via [`Rng64::restore`] resumes the exact output stream, including
    /// a cached Box–Muller spare, so checkpoint/resume is bit-identical
    /// to an uninterrupted run.
    pub fn state(&self) -> RngState {
        RngState { words: self.state, gauss_spare_bits: self.gauss_spare.map(f64::to_bits) }
    }

    /// Rebuilds a generator from a captured [`RngState`].
    pub fn restore(state: RngState) -> Rng64 {
        Rng64 { state: state.words, gauss_spare: state.gauss_spare_bits.map(f64::from_bits) }
    }
}

/// A linear map of xoshiro256**'s 256-bit state over GF(2), stored by
/// columns: `cols[j]` is the image of state bit `j` (bit `j % 64` of
/// word `j / 64`).
struct Gf2Map {
    cols: [[u64; 4]; 256],
}

impl Gf2Map {
    /// The image of `state`: the XOR of the columns of its set bits.
    fn apply(&self, state: [u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (w, &word) in state.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let col = &self.cols[w * 64 + bits.trailing_zeros() as usize];
                for (o, c) in out.iter_mut().zip(col) {
                    *o ^= c;
                }
                bits &= bits - 1;
            }
        }
        out
    }
}

/// `T^(2^i)` for `i` in `0..64`, `T` being one [`Rng64::next_u64`] step.
fn transition_powers() -> &'static [Gf2Map] {
    static POWERS: std::sync::OnceLock<Vec<Gf2Map>> = std::sync::OnceLock::new();
    POWERS.get_or_init(|| {
        let mut step = Gf2Map { cols: [[0; 4]; 256] };
        for (j, col) in step.cols.iter_mut().enumerate() {
            let mut basis = Rng64 { state: [0; 4], gauss_spare: None };
            basis.state[j / 64] = 1 << (j % 64);
            basis.next_u64();
            *col = basis.state;
        }
        let mut powers = vec![step];
        while powers.len() < 64 {
            let last = &powers[powers.len() - 1];
            let mut squared = Gf2Map { cols: [[0; 4]; 256] };
            for (sq, &col) in squared.cols.iter_mut().zip(&last.cols) {
                *sq = last.apply(col);
            }
            powers.push(squared);
        }
        powers
    })
}

/// A [`Rng64`] snapshot: the four xoshiro256** state words plus the
/// bit pattern of the cached Box–Muller spare (if one is pending).
/// The spare is carried as raw bits so a round trip through a
/// checkpoint file cannot perturb the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngState {
    /// xoshiro256** state words.
    pub words: [u64; 4],
    /// `f64::to_bits` of the pending Box–Muller spare, if any.
    pub gauss_spare_bits: Option<u64>,
}

/// Samples from a Zipf (power-law) distribution over `{0, 1, …, n−1}`.
///
/// Rank `r` (0-based) is drawn with probability proportional to
/// `1 / (r + 1)^alpha`. Recommendation-system item popularity is classically
/// Zipf-distributed, which is what makes small embedding caches effective
/// (paper Sec. V-B).
///
/// Sampling is by inverse transform: a draw `u` maps to the first rank
/// whose CDF reaches `u`, in `O(1)` expected time. At `alpha == 0` the CDF
/// of rank `r` is exactly `(r + 1) / n`, so nothing is stored: the draw
/// guesses `⌊u·n⌋` and steps against that formula. Otherwise the CDF is
/// precomputed beside a guide table (Chen and Asau's indexed search), and
/// the draw searches only its bucket's ranks.
///
/// The guide splits `[0, 1)` into `m = max(n, 16,384)` equal buckets
/// (`GUIDE_MIN_BUCKETS`) and costs `4 (m + 1)` bytes beside the CDF's
/// `8 n`: 64 KiB for every table below 16,384 ranks, one `u32` per rank
/// from there up. On a table of a few hundred ranks nearly every bucket
/// then names its answer outright (Zipf(1) over 128–512 ranks: 97–99 %
/// of them, and none spans more than two ranks), so a draw there makes
/// one comparison at most; on large tables a bucket spans about one rank.
///
/// # Example
///
/// ```
/// use enw_numerics::rng::{Rng64, ZipfSampler};
///
/// let mut rng = Rng64::new(1);
/// let zipf = ZipfSampler::new(1000, 1.0);
/// let item = zipf.sample(&mut rng);
/// assert!(item < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: usize,
    /// `cdf[r]`: the probability of a rank `<= r`. Empty at `alpha == 0`.
    cdf: Vec<f64>,
    /// Guide buckets, `max(n, GUIDE_MIN_BUCKETS)`. Zero at `alpha == 0`.
    buckets: usize,
    /// `buckets + 1` entries: `guide[k]` is the first rank whose CDF falls
    /// in `bucket` `k` or later. Draws and CDF values share that
    /// rounding, so a draw in bucket `k` lands in `guide[k]..=guide[k + 1]`
    /// exactly. Empty at `alpha == 0`.
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `alpha >= 0`.
    ///
    /// `alpha == 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `alpha` is negative/non-finite, or `alpha > 0`
    /// and `n` exceeds `u32::MAX`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "zipf over empty support");
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid zipf exponent");
        if alpha == 0.0 {
            return ZipfSampler { n, cdf: Vec::new(), buckets: 0, guide: Vec::new() };
        }
        assert!(u32::try_from(n).is_ok(), "zipf support of {n} ranks overflows the guide table");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let buckets = n.max(GUIDE_MIN_BUCKETS);
        let mut guide = Vec::with_capacity(buckets + 1);
        // Each rank claims the buckets past the last one an earlier rank
        // reached, up to its own; the last rank claims the rest.
        for (r, &c) in cdf[..n - 1].iter().enumerate() {
            let b = bucket(c, buckets);
            if guide.len() <= b {
                guide.resize(b + 1, r as u32);
            }
        }
        guide.resize(buckets + 1, (n - 1) as u32);
        ZipfSampler { n, cdf, buckets, guide }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        self.rank_of(rng.uniform())
    }

    /// The first rank whose CDF reaches `u` (the last rank if none does).
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let n = self.n;
        if self.cdf.is_empty() {
            // Below 2^53 ranks only the downward step ever fires: `u · n`
            // rounds monotonically and every `r + 1` is exact, so the
            // guess never falls short. The upward one keeps the result
            // the first rank whatever the guess.
            let mut r = bucket(u, n);
            while r > 0 && self.cdf_at(r - 1) >= u {
                r -= 1;
            }
            while self.cdf_at(r) < u {
                r += 1;
            }
            return r;
        }
        let b = bucket(u, self.buckets);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }

    /// The probability of a rank `<= r`.
    fn cdf_at(&self, r: usize) -> f64 {
        if self.cdf.is_empty() {
            (r + 1) as f64 / self.n as f64
        } else {
            self.cdf[r]
        }
    }

    /// Probability mass of rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn pmf(&self, r: usize) -> f64 {
        assert!(r < self.n, "rank {r} out of range");
        if r == 0 {
            self.cdf_at(0)
        } else {
            self.cdf_at(r) - self.cdf_at(r - 1)
        }
    }
}

/// The fewest buckets a [`ZipfSampler`] guide holds: small tables get a
/// guide finer than one bucket per rank.
const GUIDE_MIN_BUCKETS: usize = 16_384;

/// The bucket of a probability `u` among `n` equal ones: `⌊u·n⌋` as the
/// product rounds, capped at the last bucket. Monotone in `u`.
#[inline]
fn bucket(u: f64, n: usize) -> usize {
    ((u * n as f64) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng64::new(123);
        let mut b = Rng64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng64::new(5);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng64::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng64::new(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng64::new(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::new(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::new(3);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng64::new(4);
        let s = rng.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng64::new(6);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = ZipfSampler::new(500, 0.9);
        let total: f64 = (0..500).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_head_heavier_than_tail() {
        let z = ZipfSampler::new(1000, 1.0);
        assert!(z.pmf(0) > z.pmf(999) * 100.0);
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_matches_pmf_roughly() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = Rng64::new(8);
        let n = 100_000;
        let mut counts = vec![0usize; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        let emp0 = counts[0] as f64 / n as f64;
        assert!((emp0 - z.pmf(0)).abs() < 0.01, "emp {emp0} vs {}", z.pmf(0));
    }

    /// The CDF as the sampler once stored it at every exponent, zero
    /// included.
    fn stored_cdf(n: usize, alpha: f64) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        cdf.iter().map(|c| c / acc).collect()
    }

    /// The sampler's former draw: a binary search of the stored CDF.
    fn searched_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// Draws to try on a sampler over `n` ranks with CDF `cdf`: 0, the
    /// largest draw below 1, every CDF value, every rank edge `k / n` and
    /// guide bucket edge `k / max(n, GUIDE_MIN_BUCKETS)` with their
    /// neighbours, and random draws; all in `[0, 1)`, the range of
    /// [`Rng64::uniform`].
    fn probes(cdf: &[f64], rng: &mut Rng64) -> Vec<f64> {
        let n = cdf.len();
        let m = n.max(GUIDE_MIN_BUCKETS);
        let edges = |parts: usize| (1..parts).map(move |k| k as f64 / parts as f64);
        let edges = edges(n).chain(if m > n { edges(m) } else { edges(0) });
        let mut u: Vec<f64> = vec![0.0, 1.0f64.next_down()];
        for x in cdf.iter().copied().chain(edges) {
            u.extend([x.next_down(), x, x.next_up()]);
        }
        u.extend((0..2000).map(|_| rng.uniform()));
        u.retain(|u| (0.0..1.0).contains(u));
        u
    }

    #[test]
    fn zipf_draws_match_the_binary_search_of_the_stored_cdf() {
        let mut rng = Rng64::new(13);
        for n in [1, 2, 3, 128, 256, 512, 1000, 65_536, 500_000] {
            for alpha in [0.0, 0.6, 1.0, 1.2, 3.0] {
                let z = ZipfSampler::new(n, alpha);
                let cdf = stored_cdf(n, alpha);
                for u in probes(&cdf, &mut rng) {
                    let (fast, searched) = (z.rank_of(u), searched_rank(&cdf, u));
                    assert_eq!(fast, searched, "n {n}, alpha {alpha}, u {u:e}");
                }
                if n <= 65_536 {
                    for r in 0..n {
                        let stored = if r == 0 { cdf[0] } else { cdf[r] - cdf[r - 1] };
                        assert_eq!(z.pmf(r).to_bits(), stored.to_bits(), "n {n}, alpha {alpha}");
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_never_draws_a_rank_of_zero_mass() {
        // At alpha 3 the terms past rank ~2e5 fall below half an ulp of
        // the running sum, so the tail's CDF stays at exactly 1.
        let n = 500_000;
        let z = ZipfSampler::new(n, 3.0);
        assert_eq!(z.pmf(n - 1), 0.0, "the tail must carry no mass for this test to bite");
        let mut rng = Rng64::new(14);
        let cdf = stored_cdf(n, 3.0);
        let mut u = probes(&cdf, &mut rng);
        u.extend((0..100_000).map(|_| rng.uniform()));
        for r in u.into_iter().map(|u| z.rank_of(u)) {
            assert!(z.pmf(r) > 0.0, "drew rank {r}, which has no mass");
        }
    }

    #[test]
    fn advance_equals_that_many_outputs() {
        for k in [0u64, 1, 63, 64, 1_000_007] {
            let mut stepped = Rng64::new(21);
            // A pending spare must survive the jump.
            let _ = stepped.normal();
            let mut jumped = stepped.clone();
            for _ in 0..k {
                stepped.next_u64();
            }
            jumped.advance(k);
            assert_eq!(jumped, stepped, "k = {k}");
        }
    }

    #[test]
    fn state_round_trip_resumes_exact_stream() {
        let mut rng = Rng64::new(77);
        // Leave a Box–Muller spare pending so the snapshot must carry it.
        let _ = rng.normal();
        let snap = rng.state();
        let ahead: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let spare_ahead = rng.normal();
        let mut resumed = Rng64::restore(snap);
        let replay: Vec<u64> = (0..16).map(|_| resumed.next_u64()).collect();
        assert_eq!(replay, ahead);
        assert_eq!(resumed.normal().to_bits(), spare_ahead.to_bits());
    }

    #[test]
    fn fork_is_new_of_the_next_output() {
        // `AnalogTile`'s update keeps a row's stream as this one output
        // and expands it only if the row fires.
        let mut parent = Rng64::new(42);
        let mut twin = parent.clone();
        let child = parent.fork();
        assert_eq!(child, Rng64::new(twin.next_u64()));
        assert_eq!(parent, twin, "a fork costs the parent exactly one output");
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Rng64::new(42);
        let mut child = a.fork();
        // Parent and child must not produce identical next outputs.
        assert_ne!(a.next_u64(), child.next_u64());
    }
}
