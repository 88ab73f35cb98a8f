//! Zero-allocation integration tests, run under a counting global
//! allocator (the same [`enw_bench::alloc_audit::CountingAlloc`] the E18
//! binary installs). These pin the memory-discipline contract so a
//! regression that re-introduces per-request heap traffic fails CI, not
//! just the benchmark narrative.
//!
//! Every window reads the calling thread's counters
//! ([`alloc_audit::thread_snapshot`]), so what the libtest harness
//! allocates on other threads cannot leak in, the assertions are exact,
//! and the tests need no lock between them.

use enw_bench::alloc_audit::{self, serve_run_allocs, CountingAlloc};
use enw_core::cam::array::TcamConfig;
use enw_core::cam::bank::TcamBank;
use enw_core::cam::cells;
use enw_core::cam::lsh_memory::TcamKeyValueMemory;
use enw_core::crossbar::devices;
use enw_core::crossbar::tiki_taka::{TikiTakaConfig, TikiTakaTile};
use enw_core::crossbar::tile::{AnalogTile, TileConfig};
use enw_core::crossbar::tiled::{TiledAnalogLayer, TilingConfig};
use enw_core::fleet::presets::{fleet_spec, scales, trace, Scenario};
use enw_core::fleet::sim::try_run;
use enw_core::fleet::HashRing;
use enw_core::fleet::{ShardScheme, ShardSpec, ShardedStore};
use enw_core::mann::encoding::TernaryWord;
use enw_core::mann::memory::{DifferentiableMemory, Similarity};
use enw_core::nn::backend::{DigitalLinear, LinearBackend};
use enw_core::nn::conv::{ConvNet, ConvNetConfig, MapShape};
use enw_core::nn::{Activation, Mlp};
use enw_core::numerics::bits::BitVec;
use enw_core::numerics::matrix::Matrix;
use enw_core::numerics::packed::PackedMatvec;
use enw_core::numerics::rng::Rng64;
use enw_core::parallel::{self, scratch};
use enw_core::recsys::model::{Interaction, RecModel, RecModelConfig};
use enw_core::serve::backends::{ideal_layers, DigitalBackend};
use enw_core::serve::presets::{recsys_config, saturation_qps, traffic_classes, try_fleet};
use enw_core::serve::{generate_trace, Backend, LoadSpec, Payload, StationMetrics};
use enw_core::xmann::arch::{Xmann, XmannConfig};
use enw_core::xmann::cost::XmannCostParams;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn serve_loop_allocates_nothing_per_request_after_warm_up() {
    let run = |n| serve_run_allocs(n).expect("fixed station and trace are valid");
    let _ = run(128); // warm-up: lazy statics, code paths
    let (small, large) = (run(256), run(2048));
    assert_eq!(large, small, "8x the requests must cost no extra allocation");
}

/// The preset server over `serve_lane_digest`'s two smoke-size traces.
/// Once warm, a run allocates one score vector per request an MLP lane
/// serves and a fixed set of run-level buffers besides: no request is
/// copied out of the trace, and nothing else is allocated per request.
#[test]
fn preset_server_run_allocates_only_its_answers() {
    const SEED: u64 = 11;
    // The response vector, the loop's payload buffer and the report's
    // station list; every station buffer is sized when it is built.
    const RUN_BUFFERS: u64 = 3;
    let classes = traffic_classes();
    let fleet = || try_fleet(SEED).expect("the preset server is valid");
    let sat = saturation_qps(&fleet(), &classes);
    let specs = [
        LoadSpec { qps: 0.9 * sat, duration_ns: 4_000_000, seed: SEED },
        LoadSpec { qps: 2.5 * sat, duration_ns: 2_000_000, seed: SEED ^ 0x9e37_79b9 },
    ];
    for spec in specs {
        let trace = generate_trace(&fleet(), &spec, &classes);
        let run = || {
            let server = fleet();
            let s0 = alloc_audit::thread_snapshot();
            let report = server.try_run(&trace).expect("a generated trace is valid");
            let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
            // Stations 0 (crossbar, digital fallback) and 1 (digital)
            // answer with score vectors; TCAM labels and recsys CTRs are
            // plain values.
            let scored: u64 = report.stations[..2].iter().map(StationMetrics::served).sum();
            (allocs, scored)
        };
        let _ = run(); // warm-up: lazy statics, scratch pools
        let (allocs, scored) = run();
        assert_eq!(
            allocs,
            scored + RUN_BUFFERS,
            "{} requests, {scored} answered with score vectors",
            trace.len()
        );
    }
}

#[test]
fn mann_into_kernels_run_allocation_free_once_pools_are_warm() {
    let mut rng = Rng64::new(18);
    let mem = DifferentiableMemory::random(128, 32, &mut rng);
    let q: Vec<f32> = (0..32).map(|_| rng.uniform_f32() - 0.5).collect();
    let mut w = vec![0.0f32; 128];
    let mut r = vec![0.0f32; 32];
    for _ in 0..8 {
        mem.content_address_into(&q, Similarity::Cosine, 2.0, &mut w);
        mem.soft_read_into(&w, &mut r);
    }
    let iters = 256;
    let s0 = alloc_audit::thread_snapshot();
    for _ in 0..iters {
        mem.content_address_into(&q, Similarity::Cosine, 2.0, &mut w);
        mem.soft_read_into(&w, &mut r);
    }
    let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
    assert_eq!(allocs, 0, "warm _into kernels allocated over {iters} iterations");
    assert!(r.iter().all(|x| x.is_finite()));
}

#[test]
fn xmann_into_kernels_run_allocation_free_once_pools_are_warm() {
    let (slots, dim) = (128, 32);
    let mut rng = Rng64::new(19);
    let mut xm = Xmann::new(slots, dim, XmannConfig::default(), XmannCostParams::default());
    let rows: Vec<Vec<f32>> =
        (0..slots).map(|_| (0..dim).map(|_| rng.uniform_f32() - 0.5).collect()).collect();
    xm.load_memory(&rows);
    let q: Vec<f32> = (0..dim).map(|_| rng.uniform_f32() - 0.5).collect();
    let (mut sim, mut w, mut r) = (vec![0.0f32; slots], vec![0.0f32; slots], vec![0.0f32; dim]);
    let mut trio = |xm: &mut Xmann| {
        xm.similarity_into(&q, &mut sim);
        xm.content_address_into(&q, 2.0, &mut w);
        xm.soft_read_into(&w, &mut r);
    };
    for _ in 0..8 {
        trio(&mut xm);
    }
    let iters = 256;
    let s0 = alloc_audit::thread_snapshot();
    for _ in 0..iters {
        trio(&mut xm);
    }
    let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
    assert_eq!(allocs, 0, "warm X-MANN _into kernels allocated over {iters} iterations");
}

#[test]
fn scratch_checkout_reuses_buffers_instead_of_allocating() {
    {
        let _warm = scratch::take_f32(1000); // provisions the size class
    }
    let iters = 256;
    let s0 = alloc_audit::thread_snapshot();
    for _ in 0..iters {
        let buf = scratch::take_f32(1000);
        assert_eq!(buf.len(), 1000);
    }
    let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
    assert_eq!(allocs, 0, "warm scratch checkouts allocated over {iters} iterations");
}

#[test]
fn analog_tile_cycles_allocate_nothing_and_reads_touch_no_pool() {
    // The tile shape `analog_train` runs (one row chunk) and a 256 x 256
    // one whose update deals sixteen. The line buffer is the tile's own
    // and a read stays on the calling thread at any size, so only the
    // update's staging comes from a pool — one check-out per cycle.
    // (Uncalibrated: a zero-shifted tile's transposed reference read
    // keeps a check-out of its own.)
    for (rows, cols) in [(8, 10), (256, 256)] {
        let mut rng = Rng64::new(15);
        let mut tile =
            AnalogTile::new(rows, cols, &devices::ecram(), TileConfig::default(), &mut rng);
        let x: Vec<f32> = (0..cols).map(|_| rng.uniform_f32() - 0.5).collect();
        let d: Vec<f32> = (0..rows).map(|_| rng.uniform_f32() - 0.5).collect();
        let (mut y, mut dx) = (vec![0.0f32; rows], vec![0.0f32; cols]);
        let mut cycle = |tile: &mut AnalogTile| {
            tile.forward_into(&x, &mut y);
            tile.backward_into(&d, &mut dx);
            tile.update(&d, &x, 0.01);
        };
        for threads in [1, 2] {
            parallel::with_threads(threads, || {
                for _ in 0..8 {
                    cycle(&mut tile);
                }
                let cycles = 200;
                let (s0, c0) = (alloc_audit::thread_snapshot(), scratch::thread_stats().checkouts);
                for _ in 0..cycles {
                    cycle(&mut tile);
                }
                let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
                let checkouts = scratch::thread_stats().checkouts - c0;
                assert_eq!(allocs, 0, "warm {rows}x{cols} cycles allocated at {threads} thread(s)");
                assert_eq!(checkouts, cycles, "{rows}x{cols} check-outs at {threads} thread(s)");
            });
        }
        assert!(tile.stats().pulses > 0, "the updates must fire");
    }
}

#[test]
fn tcam_search_and_kv_update_allocate_nothing_once_warm() {
    let mut rng = Rng64::new(16);
    let word = |rng: &mut Rng64| (0..256).map(|_| rng.bernoulli(0.5)).collect::<BitVec>();
    // 64 arrays of 32 words: the bank shape of `tcam_fewshot`, scaled down.
    let mut bank = TcamBank::new(256, 32, cells::fefet_2t(), TcamConfig::default());
    for _ in 0..64 * 32 {
        bank.write(word(&mut rng));
    }
    assert_eq!(bank.array_count(), 64);
    let query = word(&mut rng);
    // Every bit cared for, so a random pattern matches no stored word.
    let pattern = TernaryWord::new(word(&mut rng), BitVec::from_bools(&[true; 256]));
    for threads in [1, 2] {
        parallel::with_threads(threads, || {
            let s0 = alloc_audit::thread_snapshot();
            for _ in 0..16 {
                assert!(bank.search_nearest(&query).0.is_some());
                assert!(bank.search_ternary(&pattern).0.is_empty());
            }
            let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
            assert_eq!(allocs, 0, "bank searches allocated at {threads} thread(s)");
        });
    }

    let capacity = 64;
    let mut kv = TcamKeyValueMemory::new(
        capacity,
        16,
        256,
        cells::fefet_2t(),
        TcamConfig::default(),
        &mut Rng64::new(17),
    );
    let keys: Vec<Vec<f32>> =
        (0..4 * capacity).map(|_| (0..16).map(|_| rng.normal() as f32).collect()).collect();
    // Distinct labels: every update past the first `capacity` evicts.
    for (label, key) in keys.iter().enumerate().take(2 * capacity) {
        kv.update(key, label);
    }
    assert_eq!(kv.len(), capacity);
    let s0 = alloc_audit::thread_snapshot();
    for (label, key) in keys.iter().enumerate().skip(2 * capacity) {
        kv.update(key, label);
    }
    let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
    assert_eq!(allocs, 0, "key-value updates allocated at capacity");
}

/// What the serving lanes' speed rests on: weights packed at
/// construction, so a warm read neither allocates nor re-derives
/// anything, and a workspace borrowed per batch or owned, never per
/// request.
#[test]
fn serving_lane_reads_cost_what_their_docs_say_once_warm() {
    let mut rng = Rng64::new(20);
    let window = |f: &mut dyn FnMut()| {
        let (s0, c0) = (alloc_audit::thread_snapshot(), scratch::thread_stats().checkouts);
        f();
        (alloc_audit::thread_snapshot().since(s0).allocs, scratch::thread_stats().checkouts - c0)
    };

    // Recsys lane: the model owns its workspace.
    let cfg = recsys_config();
    let mut model = RecModel::new(&cfg, &mut rng);
    let queries = enw_core::recsys::trace::TraceGenerator::new(&cfg, 1.0).batch(64, &mut rng);
    let mut sum = 0.0f32;
    let mut predict_all = || queries.iter().for_each(|q| sum += model.predict_query(q));
    predict_all();
    assert_eq!(window(&mut predict_all), (0, 0), "64 warm RecModel::predict calls");
    assert!(sum.is_finite());

    // Digital MLP lane: it owns its workspace, so a batch checks nothing
    // out and allocates once per request — the score vector it returns.
    let layers = ideal_layers(&[16, 32, 10], &mut rng);
    let mut lane = DigitalBackend::from_layers("digital", layers, DigitalBackend::DEFAULT_MODEL);
    let payloads: Vec<Payload> = (0..16).map(|_| lane.make_payload(&mut rng)).collect();
    let batch: Vec<&Payload> = payloads.iter().collect();
    let mut out = Vec::new();
    lane.serve_payloads(&batch, &mut out);
    assert_eq!(
        window(&mut || lane.serve_payloads(&batch, &mut out)),
        (16, 0),
        "a 16-request batch"
    );

    // TCAM lane: hashing borrows its projections, the search nothing.
    let mut kv =
        TcamKeyValueMemory::new(64, 16, 64, cells::cmos_16t(), TcamConfig::default(), &mut rng);
    let keys: Vec<Vec<f32>> =
        (0..32).map(|_| (0..16).map(|_| rng.normal() as f32).collect()).collect();
    for (label, key) in keys.iter().enumerate() {
        kv.update(key, label);
    }
    let mut hits = 0;
    let mut retrieve_all =
        || keys.iter().for_each(|key| hits += usize::from(kv.retrieve(key).0.is_some()));
    assert_eq!(window(&mut retrieve_all), (0, 32), "32 warm TcamKeyValueMemory::retrieve calls");
    assert_eq!(hits, 32);
}

#[test]
fn sharded_store_pool_batch_allocates_nothing_once_warm() {
    // 256 rows per shard behind 32-row caches: once warm, every miss
    // evicts, so the LRU's reuse-in-place path is inside the window.
    let spec = ShardSpec {
        tables: 2,
        rows_per_table: 1024,
        dim: 16,
        lookups_per_table: 8,
        shards: 4,
        replication: 2,
        scheme: ShardScheme::Range,
        hot_fraction: 0.25,
        cache_rows: 32,
    };
    let mut store = ShardedStore::new(spec, 18);
    store.rebalance(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let mut rng = Rng64::new(18);
    let users: Vec<u64> = (0..4096).map(|_| rng.below(100_000) as u64).collect();
    let (warm, measured) = users.split_at(users.len() - 256);
    for batch in warm.chunks(16) {
        store.pool_batch(batch);
    }
    for (threads, half) in [1, 2].into_iter().zip(measured.chunks(128)) {
        parallel::with_threads(threads, || {
            let (s0, c0) = (alloc_audit::thread_snapshot(), scratch::thread_stats().checkouts);
            let misses: u64 = half.chunks(16).map(|batch| store.pool_batch(batch).misses).sum();
            let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
            let checkouts = scratch::thread_stats().checkouts - c0;
            assert!(misses > 0, "the window must exercise eviction");
            assert_eq!(allocs, 0, "warm pooled reads allocated at {threads} thread(s)");
            assert_eq!(checkouts, 0, "the store owns its workspace at {threads} thread(s)");
        });
    }
}

#[test]
fn fixed_membership_fleet_allocates_nothing_per_request_batch_or_epoch() {
    // Pinning min == max keeps membership (and so rebalance, which
    // allocates) out of the run; what is left is per-request, per-batch
    // and per-epoch work, and doubling the horizon must not add to it.
    let scale = scales()[0];
    let run = |horizon_ns| {
        let mut spec = fleet_spec(scale);
        for lane in &mut spec.lanes {
            lane.autoscale.min_replicas = lane.initial_replicas;
            lane.autoscale.max_replicas = lane.initial_replicas;
        }
        let trace = trace(Scenario::DiurnalZipf, scale, horizon_ns, 19);
        let s0 = alloc_audit::thread_snapshot();
        let report = try_run(spec, &trace).expect("preset spec and trace are valid");
        let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
        let batches: u64 = report.lanes.iter().map(|l| l.metrics.batches).sum();
        assert!(batches > 100, "{horizon_ns} ns served only {batches} batches");
        assert!(report.lanes.iter().all(|l| l.scale_ups + l.scale_downs == 0));
        allocs
    };
    let _ = run(10_000_000); // warm-up: lazy statics, code paths
    assert_eq!(run(20_000_000), run(10_000_000), "2x the horizon must cost no extra allocation");
}

/// The `_into` kernels the serving, memory and tile tests above do not
/// reach, one row each: eight warm-up calls, then 64 calls inside a
/// window that must count no allocation. One thread, so a kernel that
/// fans out still runs every chunk inside the window.
#[test]
fn hot_kernels_allocate_nothing_once_warm() {
    let mut rng = Rng64::new(21);
    let inputs = [16, 20, 64, 8, 12, 32, 144]
        .map(|n| (0..n).map(|_| rng.uniform_f32() - 0.5).collect::<Vec<f32>>());
    let [x16, x20, xs64, d8, d12, q32, image] = inputs.each_ref().map(Vec::as_slice);
    let mut rng = Rng64::new(22);
    let ecram = devices::ecram();
    let tiling = TilingConfig { tile_rows: 8, tile_cols: 10 };
    let conv_cfg = ConvNetConfig {
        input: MapShape { channels: 1, height: 12, width: 12 },
        conv_channels: vec![4, 4],
        embed_dim: 16,
        classes: 5,
    };
    // The preset model concatenates; the block form's pairwise dots need their own.
    let recsys = RecModelConfig { interaction: Interaction::DotPairwise, ..recsys_config() };
    let word = |rng: &mut Rng64| (0..256).map(|_| rng.bernoulli(0.5)).collect::<BitVec>();

    let mut mlp = Mlp::digital(&[16, 32, 24, 10], Activation::Tanh, &mut rng);
    let frozen = mlp.freeze();
    let mut linear = DigitalLinear::new(16, 8, &mut rng);
    let mut conv = ConvNet::new(&conv_cfg, &mut rng);
    let mut tiled = TiledAnalogLayer::new(12, 20, &ecram, TileConfig::default(), tiling, &mut rng)
        .expect("a non-empty grid is valid");
    let mut tiki = TikiTakaTile::new(
        8,
        16,
        &ecram,
        TileConfig::default(),
        TikiTakaConfig::default(),
        &mut rng,
    );
    let a = Matrix::random_uniform(16, 24, -1.0, 1.0, &mut rng);
    let b = Matrix::random_uniform(24, 8, -1.0, 1.0, &mut rng);
    let packed = PackedMatvec::pack(&Matrix::random_uniform(8, 16, -1.0, 1.0, &mut rng));
    let model = RecModel::new(&recsys, &mut rng);
    let queries = enw_core::recsys::trace::TraceGenerator::new(&recsys, 1.0).batch(64, &mut rng);
    let memory = DifferentiableMemory::random(128, 32, &mut rng);
    let (w1, w2) = (word(&mut rng), word(&mut rng));
    let ring = HashRing::with_nodes(16, 8);

    type Kernel<'a> = Box<dyn FnMut() + 'a>;
    let out = |n: usize| vec![0.0f32; n];
    let rows: Vec<(&str, Kernel)> = vec![
        ("Mlp::predict_into", {
            let mut y = out(10);
            Box::new(move || mlp.predict_into(x16, &mut y))
        }),
        ("FrozenMlp::predict_batch_into", {
            let (mut y, mut ws) = (out(40), out(frozen.workspace_len(4)));
            Box::new(move || frozen.predict_batch_into(xs64, &mut y, &mut ws))
        }),
        ("DigitalLinear::backward_into", {
            let mut y = out(16);
            Box::new(move || linear.backward_into(d8, &mut y))
        }),
        ("ConvNet::{embed,predict}_into", {
            let (mut e, mut y) = (out(16), out(5));
            Box::new(move || {
                conv.embed_into(image, &mut e);
                conv.predict_into(image, &mut y);
            })
        }),
        ("TiledAnalogLayer::{forward,backward}_into", {
            let (mut y, mut dx) = (out(12), out(20));
            Box::new(move || {
                tiled.forward_into(x20, &mut y);
                tiled.backward_into(d12, &mut dx);
            })
        }),
        ("TikiTakaTile::{forward,backward}_into", {
            let (mut y, mut dx) = (out(8), out(16));
            Box::new(move || {
                tiki.forward_into(x16, &mut y);
                tiki.backward_into(d8, &mut dx);
            })
        }),
        ("Matrix::matmul_into", {
            let mut c = Matrix::zeros(16, 8);
            Box::new(move || a.matmul_into(&b, &mut c))
        }),
        ("PackedMatvec::matvec_batch_into", {
            let mut y = out(32);
            Box::new(move || packed.matvec_batch_into(xs64, &mut y))
        }),
        ("RecModel::predict_batch_into", {
            let mut ctrs = out(queries.len());
            Box::new(move || model.predict_batch_into(&queries, &mut ctrs))
        }),
        ("DifferentiableMemory::similarities_into (dot, L1, L2, Linf)", {
            let mut y = out(128);
            Box::new(move || {
                for sim in
                    [Similarity::Dot, Similarity::NegL1, Similarity::NegL2, Similarity::NegLinf]
                {
                    memory.similarities_into(q32, sim, &mut y);
                }
            })
        }),
        ("BitVec::hamming", Box::new(move || assert!(w1.hamming(&w2) > 0))),
        ("HashRing::owners_into", {
            let mut owners = [0u32; 3];
            Box::new(move || assert_eq!(ring.owners_into(0x5eed, &mut owners), 3))
        }),
    ];
    parallel::with_threads(1, || {
        for (name, mut kernel) in rows {
            for _ in 0..8 {
                kernel();
            }
            let s0 = alloc_audit::thread_snapshot();
            for _ in 0..64 {
                kernel();
            }
            let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
            assert_eq!(allocs, 0, "{name} allocated over 64 warm calls");
        }
    });
}
