//! E14 — Embedding caching opportunity (paper Sec. V-B, ref. \[66\]):
//! Zipf-skewed lookups let a small cache capture most traffic, motivating
//! caching/prefetching/near-memory co-design for the memory-bound regime.

use crate::run::Run;
use enw_core::numerics::rng::{Rng64, ZipfSampler};
use enw_core::recsys::cache::{EmbeddingCache, MemoryEnergy};
use enw_core::report::{percent, Table};

const CATALOGUE: usize = 1_000_000;
const LOOKUPS: usize = 200_000;

pub fn run(run: &mut Run) {
    let energy = MemoryEnergy::default();
    println!(
        "catalogue {CATALOGUE} rows, {LOOKUPS} lookups; DRAM {} pJ/B vs cache {} pJ/B\n",
        energy.dram_byte_pj, energy.cache_byte_pj
    );

    let mut table = Table::new(&[
        "zipf alpha",
        "cache capacity",
        "capacity (% of rows)",
        "hit rate",
        "effective pJ/B",
        "DRAM traffic saved",
    ]);
    // Hit rate per table row: skews outermost, three capacities each.
    let mut rates = Vec::new();
    let mut headline = 0.0;
    for &alpha in &[0.6f64, 0.8, 1.0, 1.2] {
        let zipf = ZipfSampler::new(CATALOGUE, alpha);
        for &capacity in &[1_000usize, 10_000, 100_000] {
            let mut rng = Rng64::new(14);
            let mut cache = EmbeddingCache::new(capacity, CATALOGUE);
            // Warm up on 10% of the trace, then measure.
            for _ in 0..LOOKUPS / 10 {
                cache.access(zipf.sample(&mut rng));
            }
            cache.reset_stats();
            for _ in 0..LOOKUPS {
                cache.access(zipf.sample(&mut rng));
            }
            let hr = cache.stats().hit_rate();
            rates.push(hr);
            if (alpha, capacity) == (1.0, CATALOGUE / 100) {
                headline = hr;
            }
            table.row_owned(vec![
                format!("{alpha:.1}"),
                format!("{capacity}"),
                format!("{:.1}%", 100.0 * capacity as f64 / CATALOGUE as f64),
                percent(hr),
                format!("{:.2}", energy.effective_byte_pj(hr)),
                percent(hr),
            ]);
        }
    }
    run.emit(&table);

    run.gate("twelve_rows", table.len() == 12, format!("{}; 4 skews x 3 capacities", table.len()));
    // A larger LRU holds a superset of a smaller one's rows, and more
    // skew concentrates lookups on the head: neither may ever lose hits.
    let in_capacity = rates.chunks(3).all(|row| row.is_sorted());
    let in_skew = rates.iter().zip(rates.iter().skip(3)).all(|(lo, hi)| lo <= hi);
    run.gate(
        "hit_rate_monotone_in_capacity_and_in_skew",
        in_capacity && in_skew,
        format!("in capacity: {in_capacity}, in skew: {in_skew}"),
    );
    // Paper Sec. V-B: at production-like skew a cache of ~1% of the
    // catalogue serves roughly half the lookups.
    run.gate(
        "one_percent_cache_at_alpha_1_serves_over_half",
        (0.55..=0.62).contains(&headline),
        format!("{}; band 55%-62%", percent(headline)),
    );
    println!("Reading: at production-like skew (alpha near 1) a cache holding ~1% of the");
    println!("catalogue serves roughly half the lookups; the remaining tail still forces DRAM,");
    println!("which is why the paper pairs caching with near-memory processing rather than");
    println!("treating either as sufficient alone.");
}
