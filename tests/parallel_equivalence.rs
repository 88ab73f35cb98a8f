//! Serial-vs-parallel bit-exactness across crate boundaries: every
//! loop that fans out must return outputs bitwise identical to its
//! one-thread run at any worker count (the determinism contract of
//! `enw_core::parallel` — fixed chunk boundaries, ascending-index
//! accumulation inside every chunk).
//!
//! Five loops fan out. The tile update (`par_pulse_by_row`), the TCAM
//! bank's nearest search and the embedding-table fill are swept here,
//! the tile update inside a whole tile cycle; DLRM query blocks in
//! `recsys::model`'s `predict_batch_into_matches_predict_query_around_every_block_edge`;
//! design-space points in `tests/dse_determinism.rs`. `scripts/verify.sh`
//! repeats the sweep on whole experiments (`ENW_THREADS=1` against `=2`,
//! stdout compared byte for byte).

use enw_core::cam::array::TcamConfig;
use enw_core::cam::bank::TcamBank;
use enw_core::cam::cells;
use enw_core::crossbar::devices;
use enw_core::crossbar::tile::{AnalogTile, TileConfig};
use enw_core::mann::encoding::TernaryWord;
use enw_core::nn::backend::LinearBackend;
use enw_core::numerics::bits::BitVec;
use enw_core::numerics::rng::Rng64;
use enw_core::parallel;
use enw_core::recsys::model::{Interaction, RecModel, RecModelConfig};
use enw_core::recsys::trace::TraceGenerator;

/// Worker counts exercised by every test: serial fallback, an even
/// split, an uneven one, and more workers than most chunk counts.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn tile_cycle_matches_serial_bitwise() {
    // A 300 x 259 tile (300 x 260 array with the bias column) under the
    // full noisy periphery: the update deals nineteen 16-row chunks with
    // an uneven tail; the two reads before it stay on the calling thread
    // and leave the periphery RNG where the update picks it up.
    let mut rng = Rng64::new(100);
    let tile = AnalogTile::new(300, 259, &devices::rram(), TileConfig::default(), &mut rng);
    let x: Vec<f32> = (0..259).map(|_| rng.range(-1.0, 1.0) as f32).collect();
    let d: Vec<f32> = (0..300).map(|_| rng.range(-1.0, 1.0) as f32).collect();
    let cycle = || {
        let mut tile = tile.clone(); // same periphery RNG state every run
        let (mut y, mut dx) = (vec![0.0f32; 300], vec![0.0f32; 259]);
        tile.forward_into(&x, &mut y);
        tile.backward_into(&d, &mut dx);
        tile.update(&d, &x, 0.05);
        (bits(&y), bits(&dx), bits(tile.weights().as_slice()), tile.stats().pulses)
    };
    let serial = parallel::with_threads(1, cycle);
    assert!(serial.3 > 0, "the update must fire");
    for threads in THREAD_COUNTS {
        assert_eq!(serial, parallel::with_threads(threads, cycle), "threads = {threads}");
    }
}

#[test]
fn parallel_tcam_bank_search_matches_serial_bitwise() {
    let mut rng = Rng64::new(102);
    // 12,305 words in 24-word arrays: four search chunks of 4,096 words,
    // the last one short, dealt across the pool. Hits and booked costs
    // must not depend on the thread count.
    let mut bank = TcamBank::new(64, 24, cells::fefet_2t(), TcamConfig::default());
    for _ in 0..3 * 4096 + 16 {
        let w: BitVec = (0..64).map(|_| rng.bernoulli(0.5)).collect();
        bank.write(w);
    }
    let queries: Vec<BitVec> =
        (0..8).map(|_| (0..64).map(|_| rng.bernoulli(0.5)).collect()).collect();
    // A stored word with a quarter of its bits wildcarded: the ternary
    // search has at least that word to return.
    let care: BitVec = (0..64).map(|_| rng.below(4) != 0).collect();
    let pattern = TernaryWord::new(queries[0].clone(), care);
    bank.write(queries[0].clone());
    let run = |threads: usize| {
        let mut b = bank.clone();
        parallel::with_threads(threads, || {
            let nearest: Vec<_> = queries.iter().map(|q| b.search_nearest(q)).collect();
            (nearest, b.search_ternary(&pattern), b.total_cost())
        })
    };
    let reference = run(1);
    assert!(!reference.1 .0.is_empty());
    for threads in THREAD_COUNTS {
        assert_eq!(reference, run(threads), "threads = {threads}");
    }
}

#[test]
fn recsys_model_build_matches_serial_bitwise() {
    // Two tables of 2.24 M values: three fill chunks each, the last one
    // short. The tables, the top stack drawn after them and the stream
    // left to the caller must not depend on the thread count.
    let cfg = RecModelConfig {
        dense_features: 8,
        bottom_mlp: vec![32],
        tables: vec![(70_000, 3); 2],
        embedding_dim: 32,
        top_mlp: vec![16],
        interaction: Interaction::Concat,
    };
    let build = |threads: usize| {
        parallel::with_threads(threads, || {
            let mut rng = Rng64::new(31);
            let mut model = RecModel::new(&cfg, &mut rng);
            let queries = TraceGenerator::new(&cfg, 1.0).batch(16, &mut rng);
            let predictions: Vec<u32> =
                queries.iter().map(|q| model.predict_query(q).to_bits()).collect();
            (model.tables().to_vec(), predictions, rng)
        })
    };
    let reference = build(1);
    for threads in THREAD_COUNTS {
        assert!(reference == build(threads), "threads = {threads}");
    }
}
