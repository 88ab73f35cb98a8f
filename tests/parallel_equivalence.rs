//! Serial-vs-parallel bit-exactness across crate boundaries: every
//! kernel that fans out must return outputs bitwise identical to its
//! one-thread run at any worker count (the determinism contract of
//! `enw_core::parallel` — fixed chunk boundaries, ascending-index
//! accumulation inside every chunk).
//!
//! Per-crate unit tests cover each kernel in isolation; this suite checks
//! the composed, cross-crate paths the experiment binaries exercise.

use enw_core::cam::array::TcamConfig;
use enw_core::cam::bank::TcamBank;
use enw_core::cam::cells;
use enw_core::crossbar::devices;
use enw_core::crossbar::tile::{AnalogTile, TileConfig};
use enw_core::mann::encoding::TernaryWord;
use enw_core::nn::backend::LinearBackend;
use enw_core::numerics::bits::BitVec;
use enw_core::numerics::matrix::Matrix;
use enw_core::numerics::rng::Rng64;
use enw_core::parallel;

/// Worker counts exercised by every test: serial fallback, an uneven
/// split, and more workers than most chunk counts.
const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn par_matvec_matches_serial_bitwise() {
    // The crossbar is where a parallel matvec lives. A 300 x 259 tile
    // (300 x 260 array with the bias column) clears the `plan_chunks`
    // gate in both read directions, so multi-worker runs really split
    // rows (forward) and columns (backward), each with an uneven tail,
    // under the full noisy periphery.
    let mut rng = Rng64::new(100);
    let tile = AnalogTile::new(300, 259, &devices::ideal(1000), TileConfig::default(), &mut rng);
    let x: Vec<f32> = (0..259).map(|_| rng.range(-1.0, 1.0) as f32).collect();
    let d: Vec<f32> = (0..300).map(|_| rng.range(-1.0, 1.0) as f32).collect();
    let reads = || {
        let mut tile = tile.clone(); // same periphery RNG state every run
        let (mut y, mut dx) = (vec![0.0f32; 300], vec![0.0f32; 259]);
        tile.forward_into(&x, &mut y);
        tile.backward_into(&d, &mut dx);
        (y, dx)
    };
    let serial = parallel::with_threads(1, reads);
    for threads in THREAD_COUNTS {
        let par = parallel::with_threads(threads, reads);
        assert_eq!(bits(&serial.0), bits(&par.0), "forward, threads = {threads}");
        assert_eq!(bits(&serial.1), bits(&par.1), "backward, threads = {threads}");
    }
}

#[test]
fn par_matmul_matches_serial_bitwise() {
    let mut rng = Rng64::new(101);
    let a = Matrix::random_uniform(150, 130, -1.0, 1.0, &mut rng);
    let b = Matrix::random_uniform(130, 110, -1.0, 1.0, &mut rng);
    let serial = parallel::with_threads(1, || a.matmul(&b));
    for threads in THREAD_COUNTS {
        let par = parallel::with_threads(threads, || a.matmul(&b));
        assert_eq!(bits(serial.as_slice()), bits(par.as_slice()), "threads = {threads}");
    }
}

#[test]
fn parallel_tcam_bank_search_matches_serial_bitwise() {
    let mut rng = Rng64::new(102);
    // The bank sweeps its 41 arrays on the calling thread whatever the
    // pool size; this pins that hits and booked costs stay independent of
    // the thread count should a fan-out ever come back.
    let mut bank = TcamBank::new(64, 24, cells::fefet_2t(), TcamConfig::default());
    for _ in 0..960 {
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
