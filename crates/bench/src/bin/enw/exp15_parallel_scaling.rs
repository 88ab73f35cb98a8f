//! E15 — simulation-throughput methodology: every optimized lane
//! (register-tiled matmul, crossbar MVM, TCAM nearest search, embedding
//! gather) is timed against its naive serial baseline across 1/2/4/8
//! threads, and every run must stay bit-identical to the baseline (the
//! determinism contract of `enw_core::parallel`). The TCAM lane runs on
//! the calling thread, so its rows read the same at every thread count.
//!
//! Timing protocol: each round times the naive baseline and the optimized
//! kernel back to back, and the reported speedup is the median of the
//! per-round ratios. Pairing cancels the slow frequency/load drift of
//! shared hosts that best-of-N timing is blind to.
//!
//! Pass `--smoke` for CI-sized inputs. Gates: every lane stays
//! bit-identical at every thread count (unconditional), and in smoke
//! mode no optimized kernel loses to its naive baseline at 2 threads,
//! nor does the 8-thread matmul plateau below 0.9x of the 4-thread one.
//! Timing gates are enforced only for thread counts the host really has
//! (`available_parallelism`; the rest print as SKIP) and fail only when
//! every paired round loses — one slow round on a shared host is noise.
//!
//! Emits `BENCH_parallel_kernels.json` in the working directory so CI can
//! track kernel throughput over time.

use crate::json::{num, Json};
use crate::run::Run;
use enw_core::cam::array::NearestHit;
use enw_core::cam::array::TcamConfig;
use enw_core::cam::bank::TcamBank;
use enw_core::cam::cells;
use enw_core::crossbar::array::AnalogArray;
use enw_core::crossbar::devices;
use enw_core::numerics::bits::BitVec;
use enw_core::numerics::matrix::Matrix;
use enw_core::numerics::rng::Rng64;
use enw_core::parallel;
use enw_core::recsys::model::EmbeddingTable;
use enw_core::report::Table;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Problem sizes: full for the recorded experiment, smoke for CI.
struct Sizes {
    rounds: usize,
    matmul_n: usize,
    tables: usize,
    table_rows: usize,
    embed_dim: usize,
    lookups_per_table: usize,
    gather_queries: usize,
    xbar_n: usize,
    xbar_queries: usize,
    tcam_words: usize,
    tcam_width: usize,
    tcam_queries: usize,
}

const FULL: Sizes = Sizes {
    rounds: 9,
    matmul_n: 1024,
    tables: 8,
    table_rows: 200_000,
    embed_dim: 64,
    lookups_per_table: 128,
    gather_queries: 300,
    xbar_n: 1024,
    xbar_queries: 64,
    tcam_words: 20_000,
    tcam_width: 256,
    tcam_queries: 32,
};

const SMOKE: Sizes = Sizes {
    rounds: 5,
    matmul_n: 512,
    tables: 4,
    table_rows: 20_000,
    embed_dim: 64,
    lookups_per_table: 64,
    gather_queries: 40,
    xbar_n: 256,
    xbar_queries: 16,
    tcam_words: 2_000,
    tcam_width: 256,
    tcam_queries: 8,
};

/// Median of a list of paired-run timings or ratios.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    values[values.len() / 2]
}

/// The pre-optimization matmul: plain i-k-j accumulation with the same
/// ascending-k order and zero-skip rule as the tiled kernel, so its
/// output is the bitwise reference.
fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let coeff = a.at(i, kk);
            if coeff == 0.0 {
                continue;
            }
            let brow = b.row(kk);
            for (o, &bv) in out.row_mut(i).iter_mut().zip(brow) {
                *o += coeff * bv;
            }
        }
    }
    out
}

/// The pre-optimization gather: one row at a time, no unrolling, no
/// prefetch.
fn gather_naive(table: &EmbeddingTable, indices: &[usize]) -> Vec<f32> {
    let mut pooled = vec![0.0f32; table.dim()];
    for &i in indices {
        for (p, v) in pooled.iter_mut().zip(table.row(i)) {
            *p += v;
        }
    }
    pooled
}

/// The pre-optimization crossbar read: one output current at a time,
/// ascending columns (the same fold `matvec_into` computes).
fn xbar_mvm_naive(weights: &Matrix, x: &[f32]) -> Vec<f32> {
    (0..weights.rows())
        .map(|r| {
            let mut acc = 0.0f32;
            for (c, xv) in x.iter().enumerate() {
                acc += weights.at(r, c) * xv;
            }
            acc
        })
        .collect()
}

/// The pre-optimization CAM scan: per-bit Hamming distance over unpacked
/// words — the straightforward software model of a match line, with the
/// same lowest-index tie rule as the limb-packed search.
fn tcam_naive(words: &[Vec<bool>], query: &[bool]) -> Option<NearestHit> {
    let mut best: Option<NearestHit> = None;
    for (i, w) in words.iter().enumerate() {
        let distance = w.iter().zip(query).filter(|(a, b)| a != b).count();
        if best.is_none_or(|b| distance < b.distance) {
            best = Some(NearestHit { index: i, distance });
        }
    }
    best
}

struct Timing {
    threads: usize,
    seconds: f64,
    speedup: f64,
    peak_speedup: f64,
    /// Per-round baseline/optimized ratios, in round order.
    ratios: Vec<f64>,
    bit_identical: bool,
}

struct KernelResult {
    name: &'static str,
    baseline_seconds: f64,
    runs: Vec<Timing>,
}

impl KernelResult {
    fn at(&self, threads: usize) -> &Timing {
        self.runs.iter().find(|r| r.threads == threads).expect("every THREADS count is timed")
    }
}

/// Runs `rounds` paired rounds of (baseline, then one optimized variant
/// per thread count) and reduces to median times and median per-round
/// speedup ratios.
fn bench_paired<R: PartialEq>(
    name: &'static str,
    rounds: usize,
    mut baseline: impl FnMut() -> R,
    mut optimized: impl FnMut(usize) -> R,
    identical: impl Fn(&R, &R) -> bool,
) -> KernelResult {
    // Warm-up: first touches fault pages in and populate caches.
    let reference = baseline();
    let mut base_times = Vec::with_capacity(rounds);
    let mut opt_times = vec![Vec::with_capacity(rounds); THREADS.len()];
    let mut ratios = vec![Vec::with_capacity(rounds); THREADS.len()];
    let mut bit_identical = vec![true; THREADS.len()];
    for _ in 0..rounds {
        let t = Instant::now();
        let base_out = baseline();
        let base_s = t.elapsed().as_secs_f64();
        base_times.push(base_s);
        assert!(identical(&base_out, &reference), "baseline must be deterministic");
        for (ti, &threads) in THREADS.iter().enumerate() {
            let (opt_s, out) = parallel::with_threads(threads, || {
                let t = Instant::now();
                let out = optimized(threads);
                (t.elapsed().as_secs_f64(), out)
            });
            opt_times[ti].push(opt_s);
            ratios[ti].push(base_s / opt_s);
            bit_identical[ti] &= identical(&out, &reference);
        }
    }
    let baseline_seconds = median(&mut base_times);
    let runs = THREADS
        .iter()
        .enumerate()
        .map(|(ti, &threads)| Timing {
            threads,
            seconds: median(&mut opt_times[ti]),
            speedup: median(&mut ratios[ti].clone()),
            peak_speedup: ratios[ti].iter().copied().fold(f64::MIN, f64::max),
            ratios: std::mem::take(&mut ratios[ti]),
            bit_identical: bit_identical[ti],
        })
        .collect();
    KernelResult { name, baseline_seconds, runs }
}

fn bench_matmul(s: &Sizes) -> KernelResult {
    let mut rng = Rng64::new(15);
    let a = Matrix::random_uniform(s.matmul_n, s.matmul_n, -1.0, 1.0, &mut rng);
    let b = Matrix::random_uniform(s.matmul_n, s.matmul_n, -1.0, 1.0, &mut rng);
    bench_paired(
        if s.matmul_n == 1024 { "matmul_1024x1024" } else { "matmul" },
        s.rounds,
        || matmul_naive(&a, &b),
        |_| a.matmul(&b),
        |x, y| x.as_slice().iter().zip(y.as_slice()).all(|(u, v)| u.to_bits() == v.to_bits()),
    )
}

fn bench_xbar_mvm(s: &Sizes) -> KernelResult {
    let mut rng = Rng64::new(17);
    let spec = devices::ideal(4000);
    let mut array = AnalogArray::new(s.xbar_n, s.xbar_n, &spec, &mut rng);
    for r in 0..s.xbar_n {
        for c in 0..s.xbar_n {
            array.set_weight(r, c, rng.range(-0.2, 0.2) as f32);
        }
    }
    let weights = array.read_matrix();
    let xs: Vec<Vec<f32>> = (0..s.xbar_queries)
        .map(|_| (0..s.xbar_n).map(|_| rng.range(-1.0, 1.0) as f32).collect())
        .collect();
    let eq = |a: &Vec<Vec<f32>>, b: &Vec<Vec<f32>>| {
        a.iter().zip(b).all(|(u, v)| u.iter().zip(v).all(|(x, y)| x.to_bits() == y.to_bits()))
    };
    bench_paired(
        "crossbar_mvm",
        s.rounds,
        || xs.iter().map(|x| xbar_mvm_naive(&weights, x)).collect::<Vec<_>>(),
        |_| xs.iter().map(|x| array.matvec(x, 0.0)).collect::<Vec<_>>(),
        eq,
    )
}

fn bench_tcam(s: &Sizes) -> KernelResult {
    let mut rng = Rng64::new(18);
    let mut bank = TcamBank::new(s.tcam_width, 128, cells::fefet_2t(), TcamConfig::default());
    let mut words_naive: Vec<Vec<bool>> = Vec::with_capacity(s.tcam_words);
    for _ in 0..s.tcam_words {
        let bools: Vec<bool> = (0..s.tcam_width).map(|_| rng.below(2) == 1).collect();
        bank.write(BitVec::from_bools(&bools));
        words_naive.push(bools);
    }
    let queries: Vec<Vec<bool>> = (0..s.tcam_queries)
        .map(|_| (0..s.tcam_width).map(|_| rng.below(2) == 1).collect())
        .collect();
    let queries_packed: Vec<BitVec> = queries.iter().map(|q| BitVec::from_bools(q)).collect();
    bench_paired(
        "tcam_search",
        s.rounds,
        || queries.iter().map(|q| tcam_naive(&words_naive, q)).collect::<Vec<_>>(),
        |_| {
            // Cost bookkeeping mutates the bank, so each timed pass works
            // on a clone; the copy is tiny next to the searches.
            let mut b = bank.clone();
            queries_packed.iter().map(|q| b.search_nearest(q).0).collect::<Vec<_>>()
        },
        |a, b| a == b,
    )
}

fn bench_gather(s: &Sizes) -> KernelResult {
    let mut rng = Rng64::new(16);
    let tables: Vec<EmbeddingTable> = (0..s.tables)
        .map(|_| EmbeddingTable::random(s.table_rows, s.embed_dim, &mut rng))
        .collect();
    let queries: Vec<Vec<Vec<usize>>> = (0..s.gather_queries)
        .map(|_| {
            (0..s.tables)
                .map(|_| (0..s.lookups_per_table).map(|_| rng.below(s.table_rows)).collect())
                .collect()
        })
        .collect();
    let eq = |x: &Vec<Vec<Vec<f32>>>, y: &Vec<Vec<Vec<f32>>>| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(qa, qb)| {
                qa.iter()
                    .zip(qb)
                    .all(|(va, vb)| va.iter().zip(vb).all(|(u, v)| u.to_bits() == v.to_bits()))
            })
    };
    bench_paired(
        "embedding_gather",
        s.rounds,
        || {
            queries
                .iter()
                .map(|q| {
                    tables.iter().zip(q).map(|(t, idx)| gather_naive(t, idx)).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        },
        |_| {
            // Queries fan out across workers in fixed chunks; every table
            // inside a query is pooled by the unrolled+prefetching kernel.
            parallel::map_chunks(queries.len(), 16, |r| {
                r.map(|qi| {
                    tables
                        .iter()
                        .zip(&queries[qi])
                        .map(|(t, idx)| t.lookup_pool(idx))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
        },
        eq,
    )
}
fn to_json(kernels: &[KernelResult], smoke: bool, cores: usize) -> Json {
    let timing = |r: &Timing| {
        Json::Obj(vec![
            ("threads", num(r.threads)),
            ("seconds", num(format_args!("{:.6}", r.seconds))),
            ("speedup", num(format_args!("{:.3}", r.speedup))),
            ("peak_speedup", num(format_args!("{:.3}", r.peak_speedup))),
            ("bit_identical", r.bit_identical.into()),
        ])
    };
    let kernel = |k: &KernelResult| {
        Json::Obj(vec![
            ("name", k.name.into()),
            ("baseline_seconds", num(format_args!("{:.6}", k.baseline_seconds))),
            ("runs", Json::arr(k.runs.iter().map(timing))),
        ])
    };
    Json::Obj(vec![
        ("bench", "parallel_kernels".into()),
        ("smoke", smoke.into()),
        ("available_parallelism", num(cores)),
        ("kernels", Json::arr(kernels.iter().map(kernel))),
    ])
}

pub fn run(run: &mut Run) {
    let smoke = run.smoke;
    let s = if smoke { &SMOKE } else { &FULL };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host threads: {} (ENW_THREADS overrides), {cores} available; speedups are medians of {} paired rounds{}\n",
        parallel::max_threads(),
        s.rounds,
        if smoke { " [smoke]" } else { "" }
    );
    parallel::prewarm(*THREADS.iter().max().unwrap_or(&1));

    let kernels = vec![bench_matmul(s), bench_xbar_mvm(s), bench_tcam(s), bench_gather(s)];

    let mut table = Table::new(&[
        "kernel",
        "baseline (ms)",
        "threads",
        "time (ms)",
        "speedup (median)",
        "speedup (peak)",
        "bit-identical",
    ]);
    for k in &kernels {
        for r in &k.runs {
            table.row_owned(vec![
                k.name.to_string(),
                format!("{:.1}", k.baseline_seconds * 1e3),
                format!("{}", r.threads),
                format!("{:.1}", r.seconds * 1e3),
                format!("{:.2}x", r.speedup),
                format!("{:.2}x", r.peak_speedup),
                format!("{}", r.bit_identical),
            ]);
        }
    }
    run.emit(&table);

    run.json("BENCH_parallel_kernels.json", &to_json(&kernels, smoke, cores));

    // A timing gate is judged only on `threads` real cores, and fails
    // only when every paired round loses: one slow round is host noise.
    let timing_gate =
        |run: &mut Run, name: &str, threads: usize, a_round_wins: bool, what: String| {
            let verdict = if threads > cores {
                format!("SKIP ({threads} threads on {cores} cores is oversubscription)")
            } else if a_round_wins {
                "PASS".to_string()
            } else {
                "FAIL (every paired round lost)".to_string()
            };
            println!("{what} -> {verdict}");
            if smoke {
                run.gate(name, threads > cores || a_round_wins, format!("{what} -> {verdict}"));
            }
        };
    for k in &kernels {
        let at2 = k.at(2);
        let identical = k.runs.iter().all(|r| r.bit_identical);
        run.gate(
            &format!("{}_bit_identical", k.name),
            identical,
            "same bits as the naive baseline at 1/2/4/8 threads",
        );
        timing_gate(
            run,
            &format!("{}_2_threads_vs_naive", k.name),
            2,
            at2.peak_speedup >= 1.0,
            format!(
                "{}: {:.2}x median ({:.2}x peak) at 2 threads vs naive serial, bit-identical {identical}",
                k.name, at2.speedup, at2.peak_speedup
            ),
        );
    }
    // Plateau guard: per-worker B-panel packing must keep the matmul
    // scaling past 4 workers — an 8-thread run that falls more than 10%
    // below the 4-thread one means shared-panel contention is back.
    let matmul = kernels.first().expect("matmul is the first kernel");
    let (at4, at8) = (matmul.at(4), matmul.at(8));
    timing_gate(
        run,
        "matmul_8_thread_plateau",
        8,
        at8.ratios.iter().zip(&at4.ratios).any(|(r8, r4)| *r8 >= 0.9 * r4),
        format!(
            "{}: {:.2}x at 8 threads vs {:.2}x at 4 (floor 0.9x)",
            matmul.name, at8.speedup, at4.speedup
        ),
    );
    println!();
    println!("Reading: the register-tiled matmul, streaming crossbar read, popcount TCAM scan");
    println!("and unrolled+prefetching gather supply the single-core win, and the persistent-");
    println!("pool fan-out multiplies it for matmul, crossbar read and gather on multi-core");
    println!("hosts (this host exposes {cores} core(s); thread counts past that are");
    println!("oversubscription, not scaling). The TCAM bank sweeps its arrays on the calling");
    println!("thread at every count (a whole-bank search costs less than one pool dispatch),");
    println!("so its rows differ by host noise only. Chunk boundaries are fixed and");
    println!("accumulators keep ascending-index order, so outputs are bit-identical at any");
    println!("thread count and parallel runs need no tolerances.");
}
