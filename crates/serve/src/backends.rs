//! The four workload lanes behind the [`Backend`] trait.
//!
//! | lane | paper section | compute | service-time model |
//! |---|---|---|---|
//! | [`DigitalBackend`] | Sec. II (baseline) | exact FP32 MLP forward | affine: provisioned digital logic |
//! | [`CrossbarBackend`] | Sec. II | MLP forward on drifted PCM weights | affine: DAC stream + integration + ADC readout per sample |
//! | [`TcamBackend`] | Sec. III–IV | LSH nearest-Hamming TCAM lookup | affine: per-item cost derived from the `enw-cam` hardware cost model |
//! | [`RecsysBackend`] | Sec. V | DLRM-style CTR prediction | roofline: `enw-recsys` batched operator latencies |
//!
//! Affine constants are representative single-lane figures chosen so the
//! analog crossbar lane is the *slow tier* (its per-sample DAC/ADC
//! conversions and drift-compensation rechecks dominate at serving batch
//! sizes) and the digital lane is the *provisioned fallback tier* — the
//! degradation ladder of DESIGN.md falls back from analog-noisy to
//! digital when deadlines are repeatedly missed.
//!
//! Every lane is programmed once and read for the rest of a run, so it
//! holds its weights packed for reading from construction on
//! (`enw_numerics::packed::PackedMatvec`: the MLP lanes' layers, the
//! TCAM lane's LSH planes, the recsys lane's two frozen stacks) and
//! nothing can write them afterwards. A batch is served one request at a
//! time, in request order, on the calling thread — each forward runs its
//! layer's outputs abreast, so an output never depends on what it was
//! batched with — and a lane reads the payloads where the trace holds
//! them. The MLP lanes own their activation workspace and the recsys
//! lane's model owns its own, so nothing is checked out per batch or per
//! request; the only allocation is each returned score vector. A serving
//! batch is at most a few hundred small forwards
//! — less than one worker wake-up — and handing recsys batches to
//! `RecModel::predict_batch_into` measured 15 % slower end to end on
//! `serve_node`.

use crate::backend::{Backend, ServiceModel};
use crate::clock::ns_from_secs;
use crate::request::{Output, Payload};
use enw_cam::array::TcamConfig;
use enw_cam::cells::CellTech;
use enw_cam::lsh_memory::TcamKeyValueMemory;
use enw_crossbar::devices::pcm::PcmConfig;
use enw_crossbar::inference::PcmLayer;
use enw_numerics::matrix::Matrix;
use enw_numerics::packed::PackedMatvec;
use enw_numerics::rng::Rng64;
use enw_recsys::characterize::RooflineMachine;
use enw_recsys::model::{RecModel, RecModelConfig};
use enw_recsys::serving::batch_latency;
use enw_recsys::trace::TraceGenerator;

/// Random post-training-like MLP weights for `dims` (values in
/// `[-0.5, 0.5]`, inside the PCM programmable range), shared by the
/// digital lane and the crossbar lane so both serve the *same* model.
pub fn ideal_layers(dims: &[usize], rng: &mut Rng64) -> Vec<Matrix> {
    dims.windows(2).map(|w| Matrix::random_uniform(w[1], w[0], -0.5, 0.5, rng)).collect()
}

/// Each payload through `view`, after checking once, before anything is
/// served, that the whole batch carries the kind of payload this lane
/// serves — so a misrouted request fails the batch loudly and can never
/// shorten it.
fn payload_views<'a, T: ?Sized>(
    lane: &str,
    batch: &'a [&'a Payload],
    view: fn(&'a Payload) -> Option<&'a T>,
) -> impl Iterator<Item = &'a T> {
    assert!(
        batch.iter().all(|p| view(p).is_some()),
        "{lane} lane got another lane's payload: route requests to the station that generated them"
    );
    batch.iter().filter_map(move |p| view(p))
}

/// The bias-free MLP both feature lanes serve — ReLU between hidden
/// layers, linear output — with every layer packed at construction.
#[derive(Debug, Clone)]
struct PackedMlp {
    layers: Vec<PackedMatvec>,
    /// Widest hidden activation: half of a forward's ping-pong workspace.
    widest: usize,
    /// The ping-pong workspace, `2 * widest` long, owned by the lane.
    workspace: Vec<f32>,
}

impl PackedMlp {
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    fn pack(layers: &[Matrix]) -> Self {
        assert!(!layers.is_empty(), "an MLP lane needs at least one layer");
        let hidden = &layers[..layers.len() - 1];
        let widest = hidden.iter().map(Matrix::rows).max().unwrap_or(0);
        PackedMlp {
            layers: layers.iter().map(PackedMatvec::pack).collect(),
            widest,
            workspace: vec![0.0; 2 * widest],
        }
    }

    fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, PackedMatvec::cols)
    }

    /// Serves a batch of feature-vector payloads into a caller-owned
    /// output buffer (`out` is cleared, then refilled), one forward per
    /// payload in batch order, all on the lane's own workspace.
    fn serve_payloads(&mut self, lane: &str, batch: &[&Payload], out: &mut Vec<Output>) {
        out.clear();
        let mut workspace = std::mem::take(&mut self.workspace);
        let in_dim = self.in_dim();
        out.extend(payload_views(lane, batch, Payload::features).map(|f| {
            assert!(
                f.len() == in_dim,
                "feature width {} does not match lane input {in_dim}",
                f.len()
            );
            Output::Scores(self.forward(f, &mut workspace))
        }));
        self.workspace = workspace;
    }

    /// One forward pass: hidden activations ping-pong between the halves
    /// of `workspace`, the last layer writes the returned scores.
    fn forward(&self, x: &[f32], workspace: &mut [f32]) -> Vec<f32> {
        let Some((last, hidden)) = self.layers.split_last() else { return Vec::new() };
        let (mut cur, mut nxt) = workspace.split_at_mut(self.widest);
        // `None` while the input is still the request's.
        let mut cur_len = None;
        for w in hidden {
            let y = &mut nxt[..w.rows()];
            w.matvec_into(cur_len.map_or(x, |n| &cur[..n]), y);
            for v in y.iter_mut() {
                *v = v.max(0.0);
            }
            cur_len = Some(y.len());
            std::mem::swap(&mut cur, &mut nxt);
        }
        let mut scores = vec![0.0f32; last.rows()];
        last.matvec_into(cur_len.map_or(x, |n| &cur[..n]), &mut scores);
        scores
    }
}

/// Exact FP32 MLP inference on provisioned digital logic — the reference
/// lane, and the fallback tier of the degradation ladder.
#[derive(Debug, Clone)]
pub struct DigitalBackend {
    name: String,
    mlp: PackedMlp,
    model: ServiceModel,
}

impl DigitalBackend {
    /// Representative single-lane timing: 20 µs batch staging, 8 µs per
    /// request (weight-stationary quantized MLP).
    pub const DEFAULT_MODEL: ServiceModel = ServiceModel { setup_ns: 20_000, per_item_ns: 8_000 };

    /// A lane over pre-built layers (use [`ideal_layers`]).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn from_layers(name: &str, layers: Vec<Matrix>, model: ServiceModel) -> Self {
        DigitalBackend { name: name.to_string(), mlp: PackedMlp::pack(&layers), model }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.mlp.in_dim()
    }
}

impl Backend for DigitalBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn service_ns(&self, batch: usize) -> u64 {
        self.model.ns(batch)
    }

    fn serve_payloads(&mut self, batch: &[&Payload], out: &mut Vec<Output>) {
        self.mlp.serve_payloads(&self.name, batch, out);
    }

    fn make_payload(&self, rng: &mut Rng64) -> Payload {
        let d = self.in_dim();
        Payload::Features((0..d).map(|_| rng.range(-1.0, 1.0) as f32).collect())
    }
}

/// Analog MLP inference on PCM crossbars (paper Sec. II): the same ideal
/// weights write-verify programmed onto differential pairs, read back at
/// deployment time `t_read` — so programming noise and conductance drift
/// are baked into every answer this lane returns.
#[derive(Debug, Clone)]
pub struct CrossbarBackend {
    name: String,
    /// Effective (noisy, drifted) weights at deployment time.
    mlp: PackedMlp,
    model: ServiceModel,
}

impl CrossbarBackend {
    /// Representative single-lane timing: 60 µs batch setup (DAC
    /// programming + integration windows), 25 µs per request (per-sample
    /// input streaming and ADC readout, including the periodic
    /// drift-compensation recheck). Deliberately the slow tier.
    pub const DEFAULT_MODEL: ServiceModel = ServiceModel { setup_ns: 60_000, per_item_ns: 25_000 };

    /// Programs `ideal` layer weights onto PCM pairs and snapshots the
    /// effective weights at deployment time `t_read` (seconds since
    /// programming).
    ///
    /// # Panics
    ///
    /// Panics if `ideal` is empty.
    pub fn program(
        name: &str,
        ideal: &[Matrix],
        cfg: PcmConfig,
        t_read: f64,
        model: ServiceModel,
        rng: &mut Rng64,
    ) -> Self {
        let layers: Vec<Matrix> = ideal
            .iter()
            .map(|w| {
                let mut layer = PcmLayer::program(w, cfg, rng);
                layer.compensate_drift(t_read);
                layer.weights_at(t_read)
            })
            .collect();
        CrossbarBackend { name: name.to_string(), mlp: PackedMlp::pack(&layers), model }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.mlp.in_dim()
    }
}

impl Backend for CrossbarBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn service_ns(&self, batch: usize) -> u64 {
        self.model.ns(batch)
    }

    fn serve_payloads(&mut self, batch: &[&Payload], out: &mut Vec<Output>) {
        self.mlp.serve_payloads(&self.name, batch, out);
    }

    fn make_payload(&self, rng: &mut Rng64) -> Payload {
        let d = self.in_dim();
        Payload::Features((0..d).map(|_| rng.range(-1.0, 1.0) as f32).collect())
    }
}

/// TCAM few-shot lookup (paper Sec. III–IV): queries hash to LSH
/// signatures and retrieve the nearest stored support label in one
/// parallel memory search. The search itself is one physical array
/// operation, so batches execute serially — the hardware *is* the
/// parallelism.
#[derive(Debug)]
pub struct TcamBackend {
    name: String,
    mem: TcamKeyValueMemory,
    dim: usize,
    model: ServiceModel,
}

/// Geometry of a TCAM lane's physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamGeometry {
    /// Stored-word capacity (must cover the support set).
    pub capacity: usize,
    /// Query embedding width.
    pub dim: usize,
    /// LSH hyperplanes (signature bits).
    pub planes: usize,
}

impl TcamBackend {
    /// Per-request digital wrapper overhead (query embedding transfer +
    /// encoder) around the raw TCAM search, and the per-batch staging
    /// cost. The search latency itself comes from the `enw-cam` cost
    /// model at construction.
    const IO_PER_ITEM_NS: u64 = 2_000;
    const SETUP_NS: u64 = 10_000;

    /// Builds the lane and stores `support` (embedding, label) pairs.
    ///
    /// # Panics
    ///
    /// Panics if `support` is empty or `geometry.capacity < support.len()`.
    pub fn new(
        name: &str,
        geometry: TcamGeometry,
        tech: CellTech,
        cfg: TcamConfig,
        support: &[(Vec<f32>, usize)],
        rng: &mut Rng64,
    ) -> Self {
        assert!(!support.is_empty(), "a TCAM lane needs stored support examples");
        assert!(geometry.capacity >= support.len(), "TCAM capacity below support set size");
        let mut mem = TcamKeyValueMemory::new(
            geometry.capacity,
            geometry.dim,
            geometry.planes,
            tech,
            cfg,
            rng,
        );
        for (key, label) in support {
            mem.update(key, *label);
        }
        // Price one probe search with the populated memory: the cam cost
        // model scales search latency with stored words, so this is the
        // steady-state per-request device time.
        let probe: Vec<f32> =
            (0..geometry.dim).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let (_, cost) = mem.retrieve(&probe);
        let search_ns = cost.latency_ns.ceil().max(1.0) as u64;
        let model = ServiceModel {
            setup_ns: Self::SETUP_NS,
            per_item_ns: search_ns.saturating_add(Self::IO_PER_ITEM_NS),
        };
        TcamBackend { name: name.to_string(), mem, dim: geometry.dim, model }
    }

    /// Query embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Backend for TcamBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn service_ns(&self, batch: usize) -> u64 {
        self.model.ns(batch)
    }

    fn serve_payloads(&mut self, batch: &[&Payload], out: &mut Vec<Output>) {
        out.clear();
        for q in payload_views(&self.name, batch, Payload::features) {
            let (hit, _cost) = self.mem.retrieve(q);
            out.push(Output::Label(hit.map(|h| h.value)));
        }
    }

    fn make_payload(&self, rng: &mut Rng64) -> Payload {
        Payload::Features((0..self.dim).map(|_| rng.range(-1.0, 1.0) as f32).collect())
    }
}

/// DLRM-style CTR prediction (paper Sec. V): real `enw-recsys` model
/// compute, priced by the roofline operator model — so batch size trades
/// throughput against latency exactly as Sec. V-B describes.
#[derive(Debug, Clone)]
pub struct RecsysBackend {
    name: String,
    model: RecModel,
    gen: TraceGenerator,
    machine: RooflineMachine,
    cfg: RecModelConfig,
}

impl RecsysBackend {
    /// Builds the lane: a model for `cfg`, a Zipf(`alpha`) trace
    /// generator, and `machine` as the roofline that prices batches.
    pub fn new(
        name: &str,
        cfg: &RecModelConfig,
        alpha: f64,
        machine: RooflineMachine,
        rng: &mut Rng64,
    ) -> Self {
        RecsysBackend {
            name: name.to_string(),
            model: RecModel::new(cfg, rng),
            gen: TraceGenerator::new(cfg, alpha),
            machine,
            cfg: cfg.clone(),
        }
    }

    /// The model configuration (used to derive SLA-driven batch policies).
    pub fn config(&self) -> &RecModelConfig {
        &self.cfg
    }

    /// The pricing roofline.
    pub fn machine(&self) -> &RooflineMachine {
        &self.machine
    }
}

impl Backend for RecsysBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn service_ns(&self, batch: usize) -> u64 {
        if batch == 0 {
            return 0;
        }
        ns_from_secs(batch_latency(&self.cfg, batch as u64, &self.machine))
    }

    fn serve_payloads(&mut self, batch: &[&Payload], out: &mut Vec<Output>) {
        out.clear();
        for q in payload_views(&self.name, batch, Payload::rec_query) {
            out.push(Output::Ctr(self.model.predict(&q.dense, &q.sparse)));
        }
    }

    fn make_payload(&self, rng: &mut Rng64) -> Payload {
        Payload::Rec(self.gen.query(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use enw_cam::cells;
    use enw_parallel as parallel;

    fn req(id: u64, payload: Payload) -> Request {
        Request { id, station: 0, payload, arrival_ns: 0, deadline_ns: u64::MAX }
    }

    fn small_rec_cfg() -> RecModelConfig {
        RecModelConfig {
            dense_features: 4,
            bottom_mlp: vec![8, 8],
            tables: vec![(64, 3), (32, 2)],
            embedding_dim: 8,
            top_mlp: vec![8],
            interaction: enw_recsys::model::Interaction::Concat,
        }
    }

    #[test]
    fn digital_and_crossbar_serve_the_same_model_differently() {
        let mut rng = Rng64::new(11);
        let ideal = ideal_layers(&[6, 10, 4], &mut rng);
        let mut digital =
            DigitalBackend::from_layers("digital", ideal.clone(), DigitalBackend::DEFAULT_MODEL);
        let mut analog = CrossbarBackend::program(
            "crossbar",
            &ideal,
            PcmConfig::projected(),
            1e6,
            CrossbarBackend::DEFAULT_MODEL,
            &mut rng,
        );
        let p = digital.make_payload(&mut rng);
        let d = digital.serve(&[req(0, p.clone())]);
        let a = analog.serve(&[req(0, p)]);
        let (Some(Output::Scores(ds)), Some(Output::Scores(as_))) = (d.first(), a.first()) else {
            unreachable!("MLP lanes return scores");
        };
        assert_eq!(ds.len(), 4);
        assert_eq!(as_.len(), 4);
        // Programming noise + drift make the analog answer close but not
        // equal to the digital reference.
        let err: f32 = ds.iter().zip(as_).map(|(x, y)| (x - y).abs()).sum();
        assert!(err > 0.0, "analog lane should carry device noise");
        assert!(err < 2.0, "analog lane should still approximate the model, err={err}");
    }

    /// Serves `n` of the lane's own payloads at 1, 2 and 8 threads; every
    /// run must equal the one-thread run, which is returned with the
    /// batch for the caller to compare against single-request calls.
    fn serve_at_thread_counts(
        lane: &mut dyn Backend,
        n: u64,
        rng: &mut Rng64,
    ) -> (Vec<Request>, Vec<Output>) {
        let batch: Vec<Request> = (0..n).map(|i| req(i, lane.make_payload(rng))).collect();
        let serial = parallel::with_threads(1, || lane.serve(&batch));
        assert_eq!(serial.len(), batch.len());
        for t in [2, 8] {
            let par = parallel::with_threads(t, || lane.serve(&batch));
            assert_eq!(par, serial, "thread count {t} changed a batch of {n}");
        }
        (batch, serial)
    }

    /// The forward pass before the layers were packed, kept as the
    /// reference: row-major `matvec_into`, ReLU between hidden layers,
    /// two buffers per request.
    fn row_major_forward(layers: &[Matrix], x: &[f32]) -> Vec<f32> {
        let widest = layers.iter().map(Matrix::rows).max().unwrap_or(1).max(x.len());
        let (mut cur, mut nxt) = (vec![0.0f32; widest], vec![0.0f32; widest]);
        cur[..x.len()].copy_from_slice(x);
        let mut len = x.len();
        let last = layers.len().saturating_sub(1);
        for (i, w) in layers.iter().enumerate() {
            w.matvec_into(&cur[..len], &mut nxt[..w.rows()]);
            len = w.rows();
            if i < last {
                for v in nxt[..len].iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
        }
        cur[..len].to_vec()
    }

    /// From a single request to well past any preset `max_batch`.
    const BATCH_SIZES: [u64; 4] = [1, 47, 256, 1024];

    #[test]
    fn mlp_batch_serving_is_thread_count_invariant() {
        let mut rng = Rng64::new(12);
        let ideal = ideal_layers(&[8, 16, 3], &mut rng);
        let mut digital =
            DigitalBackend::from_layers("d", ideal.clone(), DigitalBackend::DEFAULT_MODEL);
        let mut analog = CrossbarBackend::program(
            "x",
            &ideal,
            PcmConfig::projected(),
            1e6,
            CrossbarBackend::DEFAULT_MODEL,
            &mut rng,
        );
        let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<u32>>();
        for n in BATCH_SIZES {
            let row_major = |mlp: &PackedMlp| -> Vec<Matrix> {
                mlp.layers.iter().map(PackedMatvec::to_matrix).collect()
            };
            for (layers, lane) in [
                (row_major(&digital.mlp), &mut digital as &mut dyn Backend),
                (row_major(&analog.mlp), &mut analog as &mut dyn Backend),
            ] {
                let (batch, served) = serve_at_thread_counts(lane, n, &mut rng);
                for (r, o) in batch.iter().zip(&served) {
                    let Output::Scores(scores) = o else { unreachable!("MLP lanes return scores") };
                    let single = row_major_forward(&layers, r.payload.features().unwrap_or(&[]));
                    assert_eq!(bits(scores), bits(&single), "request {} of {n}", r.id);
                }
            }
        }
    }

    #[test]
    fn recsys_batch_serving_is_thread_count_invariant() {
        let mut rng = Rng64::new(16);
        let mut lane =
            RecsysBackend::new("r", &small_rec_cfg(), 1.0, RooflineMachine::server_cpu(), &mut rng);
        for n in BATCH_SIZES {
            let (batch, served) = serve_at_thread_counts(&mut lane, n, &mut rng);
            for (r, o) in batch.iter().zip(&served) {
                let (Output::Ctr(ctr), Some(q)) = (o, r.payload.rec_query()) else {
                    unreachable!("recsys lane serves rec payloads as CTRs")
                };
                let single = lane.model.predict(&q.dense, &q.sparse);
                assert_eq!(ctr.to_bits(), single.to_bits(), "request {} of {n}", r.id);
            }
        }
    }

    #[test]
    fn tcam_lane_retrieves_stored_labels() {
        let mut rng = Rng64::new(13);
        let support: Vec<(Vec<f32>, usize)> = (0..4)
            .map(|c| {
                let mut v = vec![-1.0f32; 8];
                v[c * 2] = 1.0;
                (v, c)
            })
            .collect();
        let mut lane = TcamBackend::new(
            "tcam",
            TcamGeometry { capacity: 16, dim: 8, planes: 64 },
            cells::cmos_16t(),
            TcamConfig::default(),
            &support,
            &mut rng,
        );
        assert!(lane.service_ns(1) > TcamBackend::SETUP_NS);
        let out = lane.serve(&[req(0, Payload::Features(support[2].0.clone()))]);
        assert_eq!(out, vec![Output::Label(Some(2))]);
    }

    #[test]
    fn recsys_lane_prices_batches_by_roofline() {
        let mut rng = Rng64::new(14);
        let cfg = small_rec_cfg();
        let mut lane =
            RecsysBackend::new("recsys", &cfg, 1.0, RooflineMachine::server_cpu(), &mut rng);
        assert_eq!(lane.service_ns(0), 0);
        let t1 = lane.service_ns(1);
        let t64 = lane.service_ns(64);
        assert!(t1 >= 1);
        assert!(t64 > t1, "batch latency must grow: {t1} vs {t64}");
        assert!((t64 as f64) < 64.0 * t1 as f64, "batching must amortize");
        let p = lane.make_payload(&mut rng);
        let out = lane.serve(&[req(0, p)]);
        let Some(Output::Ctr(ctr)) = out.first() else {
            unreachable!("recsys lane returns CTRs");
        };
        assert!((0.0..=1.0).contains(ctr));
    }

    #[test]
    fn payloads_match_their_lane() {
        let mut rng = Rng64::new(15);
        let ideal = ideal_layers(&[5, 2], &mut rng);
        let lane = DigitalBackend::from_layers("d", ideal, DigitalBackend::DEFAULT_MODEL);
        let Payload::Features(f) = lane.make_payload(&mut rng) else {
            unreachable!("MLP lanes draw feature payloads");
        };
        assert_eq!(f.len(), 5);
        let cfg = small_rec_cfg();
        let rec = RecsysBackend::new("r", &cfg, 0.8, RooflineMachine::server_cpu(), &mut rng);
        let Payload::Rec(q) = rec.make_payload(&mut rng) else {
            unreachable!("recsys lane draws rec payloads");
        };
        assert_eq!(q.dense.len(), 4);
        assert_eq!(q.sparse.len(), 2);
    }
}
