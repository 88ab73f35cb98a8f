//! Workspace-level integration tests: each exercises a pipeline that
//! crosses crate boundaries, mirroring one of the paper's experiments
//! end to end (at test-suite scale).

use enw_core::cam::array::{TcamArray, TcamConfig};
use enw_core::cam::cells;
use enw_core::cam::lsh_memory::TcamKeyValueMemory;
use enw_core::crossbar::tiki_taka::TikiTakaConfig;
use enw_core::crossbar::tile::{AnalogTile, TileConfig};
use enw_core::crossbar::{devices, train};
use enw_core::mann::embedding::{EmbeddingConfig, EmbeddingNet};
use enw_core::mann::fewshot::{evaluate, SearchMethod};
use enw_core::mann::lsh::RandomHyperplaneLsh;
use enw_core::mann::memory::{DifferentiableMemory, Similarity};
use enw_core::nn::activation::Activation;
use enw_core::nn::backend::LinearBackend;
use enw_core::nn::data::SyntheticImages;
use enw_core::nn::fewshot::{EpisodeSampler, FewShotDomain};
use enw_core::nn::mlp::{Mlp, SgdConfig};
use enw_core::numerics::bits::BitVec;
use enw_core::numerics::matrix::Matrix;
use enw_core::numerics::rng::Rng64;
use enw_core::recsys::model::{RecModel, RecModelConfig};
use enw_core::recsys::quantize::QuantizedTable;
use enw_core::recsys::trace::TraceGenerator;
use enw_core::xmann::arch::{Xmann, XmannConfig};
use enw_core::xmann::cost::XmannCostParams;

/// Sec. II end to end: an MLP trained on simulated ECRAM crossbars with a
/// realistic periphery beats chance by a wide margin and stays in the
/// neighbourhood of the FP32 baseline.
#[test]
fn analog_training_tracks_digital_baseline() {
    let mut rng = Rng64::new(1);
    let split = SyntheticImages::builder()
        .classes(4)
        .dim(36)
        .train_per_class(40)
        .test_per_class(15)
        .noise(0.4)
        .build(&mut rng);
    let cfg = SgdConfig { epochs: 4, learning_rate: 0.05 };

    let mut digital = Mlp::digital(&[36, 20, 4], Activation::Tanh, &mut rng);
    let fp = train::train_and_evaluate(&mut digital, &split, &cfg, &mut rng).test_accuracy;

    let mut analog = train::analog_mlp(
        &[36, 20, 4],
        &devices::ecram(),
        TileConfig::default(),
        Activation::Tanh,
        &mut rng,
    );
    let ana = train::train_and_evaluate(&mut analog, &split, &cfg, &mut rng).test_accuracy;

    assert!(fp > 0.8, "digital baseline failed to learn: {fp}");
    assert!(ana > 0.25 + 0.3, "analog training barely above chance: {ana}");
    assert!(ana > fp - 0.25, "analog {ana} too far below digital {fp}");
}

/// Sec. II-B5 end to end: on strongly asymmetric RRAM devices, the
/// coupled-dynamics trainer must beat plain SGD on the same data.
#[test]
fn tiki_taka_beats_plain_sgd_on_rram() {
    let split = SyntheticImages::builder()
        .classes(5)
        .dim(36)
        .train_per_class(50)
        .test_per_class(20)
        .noise(1.0)
        .build(&mut Rng64::new(2));
    let cfg = SgdConfig { epochs: 4, learning_rate: 0.05 };

    let mut rng = Rng64::new(3);
    let mut plain = train::analog_mlp(
        &[36, 20, 5],
        &devices::rram(),
        TileConfig::ideal(),
        Activation::Tanh,
        &mut rng,
    );
    let acc_plain = train::train_and_evaluate(&mut plain, &split, &cfg, &mut rng).test_accuracy;

    let mut rng = Rng64::new(3);
    let mut tt = train::tiki_taka_mlp(
        &[36, 20, 5],
        &devices::rram(),
        TileConfig::ideal(),
        TikiTakaConfig::default(),
        Activation::Tanh,
        &mut rng,
    );
    let acc_tt = train::train_and_evaluate(&mut tt, &split, &cfg, &mut rng).test_accuracy;

    assert!(
        acc_tt > acc_plain,
        "Tiki-Taka ({acc_tt}) must beat plain SGD ({acc_plain}) on asymmetric devices"
    );
}

/// Sec. III: the X-MANN architectural simulator must produce bit-identical
/// soft reads to the functional reference and identical nearest slots.
#[test]
fn xmann_is_functionally_equivalent_to_reference() {
    let mut rng = Rng64::new(4);
    let slots = 512;
    let dim = 32;
    let rows: Vec<Vec<f32>> =
        (0..slots).map(|_| (0..dim).map(|_| rng.range(-1.0, 1.0) as f32).collect()).collect();
    let mut x = Xmann::new(slots, dim, XmannConfig::default(), XmannCostParams::default());
    x.load_memory(&rows);
    let mut reference = DifferentiableMemory::new(slots, dim);
    for (i, r) in rows.iter().enumerate() {
        reference.write_slot(i, r);
    }
    let (mut got, mut want) = (vec![0.0f32; dim], vec![0.0f32; dim]);
    for trial in 0..5 {
        let w: Vec<f32> = {
            let raw: Vec<f32> = (0..slots).map(|_| rng.uniform_f32()).collect();
            let sum: f32 = raw.iter().sum();
            raw.into_iter().map(|v| v / sum).collect()
        };
        x.soft_read_into(&w, &mut got);
        reference.soft_read_into(&w, &mut want);
        assert_eq!(got, want, "trial {trial}");
    }
    // Content addressing peaks on the planted best match.
    let mut addr = vec![0.0f32; slots];
    x.content_address_into(&rows[37], 20.0, &mut addr);
    assert_eq!(enw_core::numerics::vector::argmax(&addr), 37);
}

/// Sec. IV: the TCAM nearest-match search must agree with brute-force
/// Hamming search, and the full LSH pipeline must classify like the
/// reference software memory.
#[test]
fn tcam_search_agrees_with_brute_force() {
    let mut rng = Rng64::new(5);
    let width = 96;
    let mut cam = TcamArray::new(width, cells::cmos_16t(), TcamConfig::default());
    let words: Vec<BitVec> =
        (0..200).map(|_| (0..width).map(|_| rng.bernoulli(0.5)).collect::<BitVec>()).collect();
    for w in &words {
        cam.write(w);
    }
    for _ in 0..20 {
        let q: BitVec = (0..width).map(|_| rng.bernoulli(0.5)).collect();
        let (hit, _) = cam.search_nearest(&q);
        let hit = hit.expect("non-empty");
        let brute = words
            .iter()
            .map(|w| w.hamming(&q))
            .enumerate()
            .min_by_key(|&(i, d)| (d, i))
            .expect("non-empty");
        assert_eq!((hit.index, hit.distance), brute);
    }
}

/// Sec. IV end to end: embedding → LSH → TCAM memory performs one-shot
/// classification well above chance, and the LSH signature degrades
/// retrieval gracefully versus exact cosine.
#[test]
fn lsh_tcam_pipeline_learns_one_shot() {
    let mut rng = Rng64::new(6);
    let domain = FewShotDomain::generate(30, 48, &mut rng);
    let cfg = EmbeddingConfig {
        hidden: vec![48],
        embed_dim: 16,
        background_classes: 15,
        samples_per_class: 20,
        epochs: 6,
        learning_rate: 0.05,
    };
    let mut net = EmbeddingNet::train(&domain, &cfg, &mut rng);
    let mut mem =
        TcamKeyValueMemory::new(16, 16, 256, cells::fefet_2t(), TcamConfig::default(), &mut rng);
    let mut correct = 0;
    let mut total = 0;
    for _ in 0..10 {
        let classes = rng.sample_indices(15, 5);
        for (local, &off) in classes.iter().enumerate() {
            let emb = net.embed(&domain.sample(15 + off, &mut rng));
            mem.update(&emb, local);
        }
        for (local, &off) in classes.iter().enumerate() {
            let emb = net.embed(&domain.sample(15 + off, &mut rng));
            let (hit, _) = mem.retrieve(&emb);
            if hit.expect("written this episode").value == local {
                correct += 1;
            }
            total += 1;
        }
    }
    let acc = correct as f64 / total as f64;
    assert!(acc > 0.5, "one-shot TCAM accuracy {acc} (chance 0.2)");
    assert!(mem.total_cost().energy_pj > 0.0);
}

/// Sec. IV-B: on the same episodes, the range-encoded TCAM search must
/// stay within a bounded gap of the FP32 cosine baseline (the paper's
/// 96.00% vs 99.06% relationship).
#[test]
fn range_encoding_close_to_cosine() {
    let mut rng = Rng64::new(7);
    let domain = FewShotDomain::generate(30, 48, &mut rng);
    let cfg = EmbeddingConfig {
        hidden: vec![48],
        embed_dim: 16,
        background_classes: 15,
        samples_per_class: 20,
        epochs: 6,
        learning_rate: 0.05,
    };
    let mut net = EmbeddingNet::train(&domain, &cfg, &mut rng);
    let sampler = EpisodeSampler { n_way: 5, k_shot: 1, n_query: 3 };
    let cosine = evaluate(
        &mut net,
        &domain,
        sampler,
        15,
        SearchMethod::Exact(Similarity::Cosine),
        20,
        &mut Rng64::new(100),
    );
    let ranged = evaluate(
        &mut net,
        &domain,
        sampler,
        15,
        SearchMethod::RangeEncoded { bits: 4 },
        20,
        &mut Rng64::new(100),
    );
    assert!(cosine.accuracy > 0.5, "cosine baseline failed: {}", cosine.accuracy);
    assert!(
        ranged.accuracy > cosine.accuracy - 0.15,
        "range-encoded {} too far below cosine {}",
        ranged.accuracy,
        cosine.accuracy
    );
    assert!(ranged.searches_per_query >= 1.0);
}

/// Sec. V: quantized embedding gathers flow through the same MLP stacks
/// with bounded CTR drift (the compression experiment's invariant).
#[test]
fn quantized_recsys_predictions_track_fp32() {
    let cfg = RecModelConfig {
        dense_features: 16,
        bottom_mlp: vec![32, 16],
        tables: vec![(2_000, 4); 4],
        embedding_dim: 16,
        top_mlp: vec![32],
        interaction: enw_core::recsys::model::Interaction::Concat,
    };
    let mut rng = Rng64::new(8);
    let mut model = RecModel::new(&cfg, &mut rng);
    let quantized: Vec<QuantizedTable> =
        model.tables().iter().map(|t| QuantizedTable::from_table(t, 8)).collect();
    let originals = model.tables().to_vec();
    let gen = TraceGenerator::new(&cfg, 1.0);
    for q in gen.batch(50, &mut rng) {
        let pooled_fp: Vec<Vec<f32>> =
            originals.iter().zip(&q.sparse).map(|(t, i)| t.lookup_pool(i)).collect();
        let pooled_q: Vec<Vec<f32>> =
            quantized.iter().zip(&q.sparse).map(|(t, i)| t.lookup_pool(i)).collect();
        let a = model.predict_with_pooled(&q.dense, &pooled_fp);
        let b = model.predict_with_pooled(&q.dense, &pooled_q);
        assert!((a - b).abs() < 0.05, "int8 CTR drift too large: {a} vs {b}");
    }
}

/// Cross-cutting: the analog tile is a drop-in LinearBackend — a network
/// assembled from one digital and one analog layer trains end to end.
#[test]
fn mixed_digital_analog_network_trains() {
    use enw_core::nn::layer::DenseLayer;
    let mut rng = Rng64::new(9);
    let split = SyntheticImages::builder()
        .classes(3)
        .dim(16)
        .train_per_class(50)
        .test_per_class(10)
        .noise(0.25)
        .build(&mut rng);
    // Digital layer feeding... an analog output layer (heterogeneous
    // backends can't share one Mlp's type parameter, so train two stacked
    // single-layer nets by hand).
    let mut tile = AnalogTile::new(3, 16, &devices::ecram(), TileConfig::ideal(), &mut rng);
    let target = Matrix::random_uniform(3, 17, -0.3, 0.3, &mut rng);
    tile.program_effective(&target);
    let mut out_layer = DenseLayer::new(tile, Activation::Identity);
    // Train the analog layer alone on raw pixels (logistic regression).
    let (mut logits, mut grad, mut dx) = (vec![0.0f32; 3], vec![0.0f32; 3], vec![0.0f32; 16]);
    for _ in 0..10 {
        for i in 0..split.train.len() {
            let x = split.train.input(i);
            out_layer.forward_into(x, &mut logits);
            enw_core::nn::loss::softmax_cross_entropy_into(
                &logits,
                split.train.label(i),
                &mut grad,
            );
            out_layer.backward_into(&grad, &mut dx);
            out_layer.apply_update(0.05);
        }
    }
    let mut correct = 0;
    for i in 0..split.test.len() {
        out_layer.infer_into(split.test.input(i), &mut logits);
        if enw_core::numerics::vector::argmax(&logits) == split.test.label(i) {
            correct += 1;
        }
    }
    let acc = correct as f64 / split.test.len() as f64;
    assert!(acc > 0.6, "analog logistic regression accuracy {acc}");
}

/// The LSH encoder preserves neighbourhood structure end to end through
/// the TCAM: nearest-by-cosine and nearest-by-TCAM agree on well-separated
/// clusters.
#[test]
fn lsh_tcam_agrees_with_cosine_on_separated_clusters() {
    let mut rng = Rng64::new(10);
    let lsh = RandomHyperplaneLsh::new(256, 8, &mut rng);
    let mut cam = TcamArray::new(256, cells::cmos_16t(), TcamConfig::default());
    let mut keys = Vec::new();
    for c in 0..8usize {
        let mut key = vec![0.1f32; 8];
        key[c] = 1.0;
        cam.write(&lsh.encode(&key));
        keys.push(key);
    }
    for c in 0..8usize {
        let mut q = vec![0.15f32; 8];
        q[c] = 0.9;
        let (hit, _) = cam.search_nearest(&lsh.encode(&q));
        assert_eq!(hit.expect("non-empty").index, c, "class {c}");
    }
}

/// Sec. IV: a CNN embedding (the source papers' architecture) drives the
/// same few-shot pipeline as the MLP embedding and beats chance.
#[test]
fn conv_embedding_runs_fewshot_pipeline() {
    use enw_core::mann::embedding::ConvEmbeddingNet;
    let mut rng = Rng64::new(12);
    let domain = FewShotDomain::generate(24, 64, &mut rng); // 8x8 canvas
    let cfg = EmbeddingConfig {
        hidden: vec![6], // conv channels
        embed_dim: 16,
        background_classes: 12,
        samples_per_class: 15,
        epochs: 4,
        learning_rate: 0.03,
    };
    let mut net = ConvEmbeddingNet::train(&domain, &cfg, &mut rng);
    let sampler = EpisodeSampler { n_way: 4, k_shot: 1, n_query: 3 };
    let out = evaluate(
        &mut net,
        &domain,
        sampler,
        12,
        SearchMethod::Exact(Similarity::Cosine),
        15,
        &mut Rng64::new(200),
    );
    assert!(out.accuracy > 0.45, "CNN few-shot accuracy {} (chance 0.25)", out.accuracy);
}

/// Sec. IV-C: a banked TCAM holding more words than any single array
/// still returns exact nearest matches at flat search latency.
#[test]
fn banked_tcam_scales_capacity() {
    use enw_core::cam::bank::TcamBank;
    let mut rng = Rng64::new(13);
    let mut bank = TcamBank::new(64, 32, cells::fefet_2t(), TcamConfig::default());
    let words: Vec<BitVec> =
        (0..200).map(|_| (0..64).map(|_| rng.bernoulli(0.5)).collect::<BitVec>()).collect();
    for w in &words {
        bank.write(w.clone());
    }
    assert!(bank.array_count() > 1, "capacity must span multiple arrays");
    let q: BitVec = (0..64).map(|_| rng.bernoulli(0.5)).collect();
    let (hit, cost) = bank.search_nearest(&q);
    let brute = words.iter().map(|w| w.hamming(&q)).min().expect("non-empty");
    assert_eq!(hit.expect("non-empty").distance, brute);
    // Search latency is one array evaluation + combine, regardless of rows.
    assert!(cost.latency_ns < 10.0, "banked search latency {}", cost.latency_ns);
}

/// Sec. V: serving and training views of the same model agree on which
/// configurations are embedding-dominated.
#[test]
fn serving_and_training_models_are_consistent() {
    use enw_core::recsys::characterize::RooflineMachine;
    use enw_core::recsys::serving;
    use enw_core::recsys::training::{step_breakdown, Cluster};
    let machine = RooflineMachine::server_cpu();
    let memory_cfg = RecModelConfig::memory_bound();
    let compute_cfg = RecModelConfig::compute_bound();
    // Serving: batching buys the compute-bound model far more throughput.
    let gain = |cfg: &RecModelConfig| {
        serving::throughput(cfg, 128, &machine) / serving::throughput(cfg, 1, &machine)
    };
    assert!(gain(&compute_cfg) > gain(&memory_cfg));
    // Training: the memory-bound model must not be compute-bottlenecked.
    let b = step_breakdown(&memory_cfg, 4096, &Cluster::cpu_cluster(8));
    assert_ne!(b.bottleneck(), "compute");
}

/// Sec. II: a software-trained classifier survives PCM deployment at
/// t = 0 and the projection liner preserves it over time.
#[test]
fn pcm_deployment_end_to_end() {
    use enw_core::crossbar::devices::pcm::PcmConfig;
    use enw_core::crossbar::inference::PcmLayer;
    let mut rng = Rng64::new(14);
    let split = SyntheticImages::builder()
        .classes(4)
        .dim(36)
        .train_per_class(40)
        .test_per_class(20)
        .noise(0.5)
        .build(&mut rng);
    let mut mlp = Mlp::digital(&[36, 16, 4], Activation::Tanh, &mut rng);
    mlp.train_sgd(&split.train, &SgdConfig { epochs: 6, learning_rate: 0.05 }, &mut rng);
    let sw = mlp.evaluate(&split.test);
    let l1 =
        PcmLayer::program(&mlp.layers()[0].backend().weights(), PcmConfig::projected(), &mut rng);
    let l2 =
        PcmLayer::program(&mlp.layers()[1].backend().weights(), PcmConfig::projected(), &mut rng);
    let classify = |x: &[f32], t: f64| {
        let mut xa = x.to_vec();
        xa.push(1.0);
        let mut h = l1.matvec(&xa, t);
        for v in &mut h {
            *v = v.tanh();
        }
        h.push(1.0);
        enw_core::numerics::vector::argmax(&l2.matvec(&h, t))
    };
    let acc_at = |t: f64| {
        let correct = (0..split.test.len())
            .filter(|&i| classify(split.test.input(i), t) == split.test.label(i))
            .count();
        correct as f64 / split.test.len() as f64
    };
    assert!(sw > 0.8, "software baseline failed: {sw}");
    assert!(acc_at(0.0) > sw - 0.15, "deployment lost too much at t=0: {}", acc_at(0.0));
    assert!(acc_at(1e8) > sw - 0.2, "projected PCM lost too much over time: {}", acc_at(1e8));
}
