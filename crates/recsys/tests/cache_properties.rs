//! Property-based tests for the embedding cache (paper Sec. V-B): the
//! dense-key LRU must answer every access exactly as the textbook
//! model does.
//!
//! Compiled only with `--features proptest` so the default tier-1 run
//! stays lean; enable it in CI sweeps via `scripts/verify.sh --full`.
#![cfg(feature = "proptest")]

use enw_recsys::cache::EmbeddingCache;
use proptest::prelude::*;

/// LRU as a most-recent-first list: a hit moves the key to the front, a
/// miss inserts it there and drops whatever falls off the end.
fn model_access(recent: &mut Vec<usize>, capacity: usize, key: usize) -> bool {
    let found = recent.iter().position(|&k| k == key);
    if let Some(at) = found {
        recent.remove(at);
    }
    recent.insert(0, key);
    recent.truncate(capacity);
    found.is_some()
}

proptest! {
    /// Same hit/miss vector as the list model, and every access counted
    /// exactly once. 1 to 96 keys against capacities up to 64, so
    /// sequences both fit and overflow the cache, and capacities fall
    /// below, on and above the key count.
    #[test]
    fn answers_match_a_most_recent_first_list(capacity in 1usize..65,
                                              keys in 1usize..97,
                                              seq in prop::collection::vec(0usize..96, 0..600)) {
        let mut cache = EmbeddingCache::new(capacity, keys);
        let mut recent = Vec::new();
        for (step, &k) in seq.iter().enumerate() {
            let key = k % keys;
            prop_assert_eq!(cache.access(key),
                            model_access(&mut recent, capacity, key),
                            "step {} of {:?} at capacity {}, {} keys", step, seq, capacity, keys);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, seq.len() as u64);
    }
}
