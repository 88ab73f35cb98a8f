//! Thread invariance of the composed `_into` kernels across crate
//! boundaries: each path the experiments and the serving runtime run
//! takes its output at one worker as the reference and must reproduce
//! it bit for bit at 1, 2 and 8 workers (the X-MANN path its charged
//! `Cost` too).
//!
//! Per-crate unit tests cover each `_into` kernel in isolation. The two
//! memory scans are also held to an independent definition —
//! `Similarity::score` row by row, and the two-pass X-MANN similarity
//! written out below — because a thread check only compares the
//! rows-abreast kernel with itself.

use enw_core::crossbar::devices;
use enw_core::crossbar::tile::{AnalogTile, TileConfig};
use enw_core::mann::memory::{DifferentiableMemory, Similarity};
use enw_core::nn::activation::Activation;
use enw_core::nn::backend::LinearBackend;
use enw_core::nn::mlp::Mlp;
use enw_core::numerics::rng::Rng64;
use enw_core::parallel;
use enw_core::recsys::model::{Interaction, RecModel, RecModelConfig};
use enw_core::recsys::trace::TraceGenerator;
use enw_core::xmann::arch::{Xmann, XmannConfig};
use enw_core::xmann::cost::XmannCostParams;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn crossbar_forward_and_backward_into_are_thread_invariant() {
    // Tiles built from the same seed share weights, devices and RNG
    // stream, so every run draws the same noise.
    let mut rng = Rng64::new(8);
    let x: Vec<f32> = (0..40).map(|_| rng.uniform_f32() - 0.5).collect();
    let d: Vec<f32> = (0..48).map(|_| rng.uniform_f32() - 0.5).collect();
    let run = |threads| {
        parallel::with_threads(threads, || {
            let mut rng = Rng64::new(7);
            let mut t = AnalogTile::new(48, 40, &devices::rram(), TileConfig::default(), &mut rng);
            let mut y = vec![0.0f32; 48];
            let mut dx = vec![0.0f32; 40];
            t.forward_into(&x, &mut y);
            t.backward_into(&d, &mut dx);
            (y, dx)
        })
    };
    let reference = run(1);
    for threads in THREAD_COUNTS {
        let (y, dx) = run(threads);
        assert_eq!(bits(&reference.0), bits(&y), "forward, threads = {threads}");
        assert_eq!(bits(&reference.1), bits(&dx), "backward, threads = {threads}");
    }
}

#[test]
fn mlp_predict_into_is_thread_invariant() {
    let mut rng = Rng64::new(9);
    let mut mlp = Mlp::digital(&[24, 32, 6], Activation::Relu, &mut rng);
    let x: Vec<f32> = (0..24).map(|_| rng.uniform_f32() - 0.5).collect();
    let mut run = |threads| {
        parallel::with_threads(threads, || {
            let mut out = vec![0.0f32; 6];
            mlp.predict_into(&x, &mut out);
            out
        })
    };
    let reference = run(1);
    for threads in THREAD_COUNTS {
        assert_eq!(bits(&reference), bits(&run(threads)), "threads = {threads}");
    }
}

#[test]
fn mann_memory_into_forms_match_across_threads() {
    let mut rng = Rng64::new(10);
    let mem = DifferentiableMemory::random(96, 24, &mut rng);
    let q: Vec<f32> = (0..24).map(|_| rng.uniform_f32() - 0.5).collect();
    let run = |threads| {
        parallel::with_threads(threads, || {
            let mut sims = vec![0.0f32; 96];
            let mut w = vec![0.0f32; 96];
            let mut r = vec![0.0f32; 24];
            mem.similarities_into(&q, Similarity::Cosine, &mut sims);
            mem.content_address_into(&q, Similarity::Cosine, 2.0, &mut w);
            mem.soft_read_into(&w, &mut r);
            (sims, w, r)
        })
    };
    let (sims_ref, w_ref, r_ref) = run(1);
    for threads in THREAD_COUNTS {
        let (sims, w, r) = run(threads);
        assert_eq!(bits(&sims_ref), bits(&sims), "similarities, threads = {threads}");
        assert_eq!(bits(&w_ref), bits(&w), "content_address, threads = {threads}");
        assert_eq!(bits(&r_ref), bits(&r), "soft_read, threads = {threads}");
    }
}

#[test]
fn xmann_into_forms_and_costs_are_thread_invariant() {
    let (slots, dim) = (80, 20);
    let mut rng = Rng64::new(11);
    let rows: Vec<Vec<f32>> =
        (0..slots).map(|_| (0..dim).map(|_| rng.uniform_f32() - 0.5).collect()).collect();
    let mut xm = Xmann::new(slots, dim, XmannConfig::default(), XmannCostParams::default());
    xm.load_memory(&rows);
    let q: Vec<f32> = (0..dim).map(|_| rng.uniform_f32() - 0.5).collect();
    let mut run = |threads| {
        parallel::with_threads(threads, || {
            let mut w = vec![0.0f32; slots];
            let mut r = vec![0.0f32; dim];
            let w_cost = xm.content_address_into(&q, 1.5, &mut w);
            let r_cost = xm.soft_read_into(&w, &mut r);
            (w, r, w_cost, r_cost)
        })
    };
    let (w_ref, r_ref, w_cost_ref, r_cost_ref) = run(1);
    for threads in THREAD_COUNTS {
        let (w, r, w_cost, r_cost) = run(threads);
        assert_eq!(bits(&w_ref), bits(&w), "content_address, threads = {threads}");
        assert_eq!(bits(&r_ref), bits(&r), "soft_read, threads = {threads}");
        // The cost model must not depend on the worker count.
        assert_eq!(w_cost_ref, w_cost, "content_address cost, threads = {threads}");
        assert_eq!(r_cost_ref, r_cost, "soft_read cost, threads = {threads}");
    }
}

#[test]
fn recsys_predict_batch_into_is_thread_invariant() {
    let mut rng = Rng64::new(12);
    let cfg = RecModelConfig {
        dense_features: 12,
        bottom_mlp: vec![24, 12],
        tables: vec![(400, 6); 5],
        embedding_dim: 12,
        top_mlp: vec![16],
        interaction: Interaction::DotPairwise,
    };
    let mut model = RecModel::new(&cfg, &mut rng);
    let gen = TraceGenerator::new(&cfg, 1.0);
    let queries: Vec<_> = (0..32).map(|_| gen.query(&mut rng)).collect();
    let mut run = |threads| {
        parallel::with_threads(threads, || {
            let mut out = vec![0.0f32; queries.len()];
            model.predict_batch_into(&queries, &mut out);
            out
        })
    };
    let reference = run(1);
    for threads in THREAD_COUNTS {
        assert_eq!(bits(&reference), bits(&run(threads)), "threads = {threads}");
    }
}

/// Values that expose a scan which reorders a row's terms, starts its
/// accumulator somewhere else, or drops a term: signed zeros,
/// subnormals, the finite extremes, infinities and NaN.
const AWKWARD: [f32; 12] = [
    0.0,
    -0.0,
    1.0e-40,
    -3.0e-45,
    f32::MIN_POSITIVE,
    f32::MAX,
    f32::MIN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    1.0,
    -1.0,
];

/// A `[-0.5, 0.5)` draw, or with probability `awkward_in_8 / 8` one of
/// [`AWKWARD`].
fn draw(rng: &mut Rng64, awkward_in_8: usize) -> f32 {
    if rng.below(8) < awkward_in_8 {
        AWKWARD[rng.below(AWKWARD.len())]
    } else {
        rng.uniform_f32() - 0.5
    }
}

/// Memory contents for the scan oracles: the first rows (as many as fit)
/// are all `-0.0`, all `+0.0`, all-finite and a copy of `like`; the rest
/// mix finite draws with one awkward value in eight.
fn awkward_rows(slots: usize, dim: usize, like: &[f32], rng: &mut Rng64) -> Vec<Vec<f32>> {
    let mut rows: Vec<Vec<f32>> =
        (0..slots).map(|_| (0..dim).map(|_| draw(rng, 1)).collect()).collect();
    let fixed =
        [vec![-0.0; dim], vec![0.0; dim], (0..dim).map(|_| draw(rng, 0)).collect(), like.to_vec()];
    for (row, f) in rows.iter_mut().zip(fixed) {
        *row = f;
    }
    rows
}

/// All-positive (so an all-`-0.0` row gives all-`-0.0` products), finite
/// with signed zeros, and one awkward value in four.
fn awkward_queries(dim: usize, rng: &mut Rng64) -> [Vec<f32>; 3] {
    let positive = (0..dim).map(|_| rng.uniform_f32() + 0.25).collect();
    let zeros = (0..dim).map(|i| [0.0, -0.0, draw(rng, 0)][i % 3]).collect();
    let awkward = (0..dim).map(|_| draw(rng, 2)).collect();
    [positive, zeros, awkward]
}

/// Equal to the bit; any NaN equals any NaN.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (s, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}, slot {s}: scan {g:?} ({:#010x}) vs oracle {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// `(slots, dim)`: every remainder of the four-row interleave, then a
/// long memory, each at widths below, at and off the X-MANN tile's.
fn scan_shapes() -> impl Iterator<Item = (usize, usize)> {
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 4097].into_iter().flat_map(|s| [1, 3, 64, 70].map(|d| (s, d)))
}

#[test]
fn mann_similarity_scans_match_one_row_scores_bitwise() {
    let sims = [
        Similarity::Cosine,
        Similarity::Dot,
        Similarity::NegL1,
        Similarity::NegL2,
        Similarity::NegLinf,
    ];
    let mut rng = Rng64::new(15);
    for (slots, dim) in scan_shapes() {
        let queries = awkward_queries(dim, &mut rng);
        let mut mem = DifferentiableMemory::new(slots, dim);
        for (s, row) in awkward_rows(slots, dim, &queries[1], &mut rng).iter().enumerate() {
            mem.write_slot(s, row);
        }
        let mut got = vec![0.0f32; slots];
        for (q, sim) in queries.iter().flat_map(|q| sims.map(|sim| (q, sim))) {
            mem.similarities_into(q, sim, &mut got);
            let want: Vec<f32> = (0..slots).map(|s| sim.score(q, mem.slot(s))).collect();
            assert_same_bits(&got, &want, &format!("{sim:?}, {slots} x {dim}"));
        }
    }
}

#[test]
fn xmann_similarity_matches_the_two_pass_definition_bitwise() {
    // What `similarity_into` computed before dot and norm shared a pass:
    // a matvec accumulated from +0.0, then each row's L1 norm.
    let two_pass = |q: &[f32], row: &[f32]| {
        let mut dot = 0.0f32;
        for (w, x) in row.iter().zip(q) {
            dot += w * x;
        }
        let norm: f32 = row.iter().map(|v| v.abs()).sum();
        dot / (norm + 1e-6)
    };
    let mut rng = Rng64::new(16);
    for (slots, dim) in scan_shapes() {
        let queries = awkward_queries(dim, &mut rng);
        let rows = awkward_rows(slots, dim, &queries[1], &mut rng);
        let mut xm = Xmann::new(slots, dim, XmannConfig::default(), XmannCostParams::default());
        xm.load_memory(&rows);
        let mut got = vec![0.0f32; slots];
        for q in &queries {
            xm.similarity_into(q, &mut got);
            let want: Vec<f32> = rows.iter().map(|row| two_pass(q, row)).collect();
            assert_same_bits(&got, &want, &format!("{slots} x {dim}"));
        }
    }
}
