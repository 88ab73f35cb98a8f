//! The DLRM-style neural recommendation model of paper Fig. 6 / Sec. V-A.
//!
//! Dense (continuous) features pass through a bottom MLP stack; sparse
//! categorical features index embedding tables through multi-hot lookups
//! whose rows are pooled; the pooled latent vectors and the dense stack's
//! output interact (concatenation or pairwise dot products) and feed a
//! top/predictor MLP whose sigmoid output is the predicted
//! click-through-rate.

use crate::error::RecsysError;
use crate::trace::SparseQuery;
use enw_nn::activation::Activation;
use enw_nn::mlp::{FrozenMlp, Mlp};
use enw_nn::DigitalLinear;
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;
use std::borrow::Borrow;

/// Queries per block of [`RecModel::predict_batch_into`]: the unit the
/// MLP stacks run over as one matrix and the unit dealt to a thread.
/// 256 rows of the widest activation matrix stay inside L2 beside the
/// packed weights; 64 measured about 5 % slower on the `recsys_embed`
/// shape.
const BATCH_BLOCK: usize = 256;

/// How many lookups ahead [`EmbeddingTable::lookup_pool`] prefetches.
/// Swept on the reference host: 8 hides most of the random-row DRAM
/// latency without evicting rows before use.
const PF_DISTANCE: usize = 8;

/// Splits the next `len` elements off the front of a workspace.
fn carve<'a>(workspace: &mut &'a mut [f32], len: usize) -> &'a mut [f32] {
    let (head, tail) = std::mem::take(workspace).split_at_mut(len);
    *workspace = tail;
    head
}

/// The logistic link from the top stack's logit to a click-through rate.
#[inline]
fn sigmoid(logit: f32) -> f32 {
    1.0 / (1.0 + (-logit).exp())
}

/// One embedding table: `rows × dim` learned latent vectors addressed by
/// categorical indices.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    weights: Matrix,
}

impl EmbeddingTable {
    /// A randomly initialized table (as after training; values in
    /// `[-0.5, 0.5]`, the scale typical of trained embeddings).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn random(rows: usize, dim: usize, rng: &mut Rng64) -> Self {
        EmbeddingTable { weights: Matrix::random_uniform(rows, dim, -0.5, 0.5, rng) }
    }

    /// Number of rows (catalogue size).
    pub fn rows(&self) -> usize {
        self.weights.rows()
    }

    /// Latent dimension.
    pub fn dim(&self) -> usize {
        self.weights.cols()
    }

    /// Bytes of storage at FP32.
    pub fn bytes(&self) -> u64 {
        (self.rows() * self.dim() * 4) as u64
    }

    /// One embedding row.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row(&self, index: usize) -> &[f32] {
        self.weights.row(index)
    }

    /// Multi-hot lookup with sum pooling: gathers `indices` rows and sums
    /// them — the operation whose irregular DRAM accesses dominate
    /// memory-bound recommendation models.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of range.
    /// The kernel is unrolled eight indices deep with software prefetch:
    /// rows `PF_DISTANCE` lookups ahead are pulled toward L1 while the
    /// current eight rows are summed, hiding the random-access DRAM
    /// latency that makes the naive loop miss-bound. Each output element
    /// keeps a single accumulator that adds the gathered rows sequentially
    /// in index order, so the result is bit-identical to the plain
    /// one-row-at-a-time loop at any unroll factor.
    pub fn lookup_pool(&self, indices: &[usize]) -> Vec<f32> {
        let mut pooled = vec![0.0f32; self.dim()];
        self.gather_pool_into(indices, &mut pooled);
        pooled
    }

    /// [`lookup_pool`](EmbeddingTable::lookup_pool) into a caller-owned
    /// buffer (`pooled` is fully overwritten) — the allocation-free form
    /// the batched predictors drive with scratch workspaces.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty, any index is out of range, or
    /// `pooled.len() != dim()`.
    pub fn gather_pool_into(&self, indices: &[usize], pooled: &mut [f32]) {
        assert!(!indices.is_empty(), "empty multi-hot lookup");
        let dim = self.dim();
        assert_eq!(pooled.len(), dim, "pooled output width mismatch");
        enw_trace::record_span_io(
            "recsys/gather_pool",
            (indices.len() * dim) as u64,
            (4 * indices.len() * dim) as u64,
            (4 * dim) as u64,
        );
        pooled.fill(0.0);
        for &i in indices.iter().take(PF_DISTANCE) {
            self.prefetch_row(i);
        }
        let mut octs = indices.chunks_exact(8);
        let mut seen = 0usize;
        for oct in &mut octs {
            // Software pipeline: issue this iteration's look-ahead
            // prefetches before touching the current rows, so their DRAM
            // fetches overlap the summation below.
            for k in 0..8 {
                if let Some(&ahead) = indices.get(seen + k + PF_DISTANCE) {
                    self.prefetch_row(ahead);
                }
            }
            seen += 8;
            // Pre-slice every row to `dim` so the inner loop indexes
            // eight slices whose lengths provably match `pooled` — the
            // per-element bounds checks hoist out and the d-loop
            // vectorizes.
            let rows: [&[f32]; 8] = [
                &self.weights.row(oct[0])[..dim],
                &self.weights.row(oct[1])[..dim],
                &self.weights.row(oct[2])[..dim],
                &self.weights.row(oct[3])[..dim],
                &self.weights.row(oct[4])[..dim],
                &self.weights.row(oct[5])[..dim],
                &self.weights.row(oct[6])[..dim],
                &self.weights.row(oct[7])[..dim],
            ];
            for (d, p) in pooled.iter_mut().enumerate() {
                let mut acc = *p;
                for r in rows {
                    acc += r[d];
                }
                *p = acc;
            }
        }
        for &i in octs.remainder() {
            for (p, v) in pooled.iter_mut().zip(self.weights.row(i)) {
                *p += v;
            }
        }
    }

    /// Hints the cache hierarchy to pull row `i` toward L1 (no-op on
    /// non-x86 hosts). Purely a performance hint: it reads nothing and
    /// cannot fault, so gathered values are unaffected.
    #[inline(always)]
    fn prefetch_row(&self, i: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            let row = self.weights.row(i);
            // SAFETY: every 64-byte step stays inside the row slice, and
            // _mm_prefetch has no architectural effect beyond the hint.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                let base = row.as_ptr().cast::<i8>();
                let mut off = 0usize;
                while off < std::mem::size_of_val(row) {
                    _mm_prefetch(base.add(off), _MM_HINT_T0);
                    off += 64;
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = i;
    }

    /// Reference implementation of [`EmbeddingTable::lookup_pool`] as a
    /// dense one-hot matrix product (for equivalence testing).
    pub fn lookup_pool_dense(&self, indices: &[usize]) -> Vec<f32> {
        let mut onehot = vec![0.0f32; self.rows()];
        for &i in indices {
            onehot[i] += 1.0;
        }
        self.weights.matvec_t(&onehot)
    }
}

/// How pooled embeddings and the dense stack output combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interaction {
    /// Plain concatenation (Wide&Deep style).
    Concat,
    /// Pairwise dot products between all latent vectors (DLRM style),
    /// concatenated with the dense output.
    DotPairwise,
}

/// Model architecture configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RecModelConfig {
    /// Number of continuous input features.
    pub dense_features: usize,
    /// Bottom MLP hidden widths (the last entry must equal
    /// `embedding_dim` so interactions are well-typed).
    pub bottom_mlp: Vec<usize>,
    /// `(rows, lookups_per_query)` for each embedding table; all tables
    /// share `embedding_dim`.
    pub tables: Vec<(usize, usize)>,
    /// Shared latent dimension.
    pub embedding_dim: usize,
    /// Top (predictor) MLP hidden widths.
    pub top_mlp: Vec<usize>,
    /// Feature-interaction operator.
    pub interaction: Interaction,
}

impl RecModelConfig {
    /// A small compute-dominated configuration (big MLPs, few small
    /// tables) — the paper's "large dense-feature DNN stacks" regime.
    pub fn compute_bound() -> Self {
        RecModelConfig {
            dense_features: 256,
            bottom_mlp: vec![512, 256, 64],
            tables: vec![(10_000, 1); 4],
            embedding_dim: 64,
            top_mlp: vec![512, 256],
            interaction: Interaction::Concat,
        }
    }

    /// A memory-dominated configuration (many large tables, heavy
    /// pooling, thin MLPs) — the embedding-bound regime.
    pub fn memory_bound() -> Self {
        RecModelConfig {
            dense_features: 32,
            bottom_mlp: vec![64, 32],
            tables: vec![(1_000_000, 32); 16],
            embedding_dim: 32,
            top_mlp: vec![64],
            interaction: Interaction::Concat,
        }
    }

    /// Starts building a configuration from `base`; cross-field
    /// constraints (the bottom MLP ending at `embedding_dim`, non-zero
    /// dimensions) are checked once at [`RecModelConfigBuilder::build`]
    /// instead of panicking inside [`RecModel::new`].
    pub fn builder(base: RecModelConfig) -> RecModelConfigBuilder {
        RecModelConfigBuilder { cfg: base }
    }
}

/// Builder for [`RecModelConfig`]: start from a preset
/// ([`RecModelConfig::compute_bound`] or
/// [`RecModelConfig::memory_bound`]), override fields, and validate the
/// whole configuration at [`build`](RecModelConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct RecModelConfigBuilder {
    cfg: RecModelConfig,
}

impl RecModelConfigBuilder {
    /// Number of continuous input features.
    pub fn dense_features(mut self, n: usize) -> Self {
        self.cfg.dense_features = n;
        self
    }

    /// Bottom MLP hidden widths (must end at the embedding dimension).
    pub fn bottom_mlp(mut self, widths: Vec<usize>) -> Self {
        self.cfg.bottom_mlp = widths;
        self
    }

    /// `(rows, lookups_per_query)` per embedding table.
    pub fn tables(mut self, tables: Vec<(usize, usize)>) -> Self {
        self.cfg.tables = tables;
        self
    }

    /// Shared latent dimension.
    pub fn embedding_dim(mut self, dim: usize) -> Self {
        self.cfg.embedding_dim = dim;
        self
    }

    /// Top (predictor) MLP hidden widths.
    pub fn top_mlp(mut self, widths: Vec<usize>) -> Self {
        self.cfg.top_mlp = widths;
        self
    }

    /// Feature-interaction operator.
    pub fn interaction(mut self, interaction: Interaction) -> Self {
        self.cfg.interaction = interaction;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<RecModelConfig, RecsysError> {
        let c = self.cfg;
        if c.embedding_dim == 0 {
            return Err(RecsysError::InvalidConfig { reason: "embedding_dim must be non-zero" });
        }
        if c.dense_features == 0 {
            return Err(RecsysError::InvalidConfig { reason: "dense_features must be non-zero" });
        }
        if c.bottom_mlp.last() != Some(&c.embedding_dim) {
            return Err(RecsysError::InvalidConfig {
                reason: "bottom MLP must be non-empty and end at embedding_dim",
            });
        }
        if c.tables.is_empty() {
            return Err(RecsysError::InvalidConfig {
                reason: "at least one embedding table is required",
            });
        }
        if c.tables.iter().any(|&(rows, lookups)| rows == 0 || lookups == 0) {
            return Err(RecsysError::InvalidConfig {
                reason: "every table needs non-zero rows and lookups",
            });
        }
        Ok(c)
    }
}

/// A constructed recommendation model.
///
/// # Example
///
/// ```
/// use enw_recsys::model::{RecModel, RecModelConfig};
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let mut cfg = RecModelConfig::compute_bound();
/// cfg.tables = vec![(100, 1); 2]; // shrink for the example
/// let mut model = RecModel::new(&cfg, &mut rng);
/// let ctr = model.predict(&vec![0.1; 256], &[vec![3], vec![7]]);
/// assert!((0.0..=1.0).contains(&ctr));
/// ```
#[derive(Debug, Clone)]
pub struct RecModel {
    cfg: RecModelConfig,
    /// Both stacks are post-training and only ever read: held frozen.
    bottom: FrozenMlp,
    tables: Vec<EmbeddingTable>,
    top: FrozenMlp,
    /// One query's vectors and stack activations, reused by every
    /// [`predict`](RecModel::predict).
    workspace: Vec<f32>,
}

impl RecModel {
    /// Builds a model with random (post-training-like) parameters.
    ///
    /// # Panics
    ///
    /// Panics if the bottom MLP does not end at `embedding_dim`, or any
    /// dimension is zero.
    pub fn new(cfg: &RecModelConfig, rng: &mut Rng64) -> Self {
        assert_eq!(
            cfg.bottom_mlp.last().copied(),
            Some(cfg.embedding_dim),
            "bottom MLP must be non-empty and end at embedding_dim for interaction"
        );
        let (bottom, tables, top) = Self::draw(cfg, rng);
        let (bottom, top) = (bottom.freeze(), top.freeze());
        // Latent and pooled vectors side by side (which is the `Concat`
        // interaction as it lies), `DotPairwise`'s own vector, and the
        // ping-pong halves the two stacks share.
        let vectors = (tables.len() + 1) * cfg.embedding_dim;
        let ping_pong = bottom.workspace_len(1).max(top.workspace_len(1));
        let workspace = vec![0.0f32; vectors + Self::dots_len(cfg) + ping_pong];
        RecModel { cfg: cfg.clone(), bottom, tables, top, workspace }
    }

    /// The model's random parameters in their fixed draw order: bottom
    /// stack, tables, top stack.
    fn draw(
        cfg: &RecModelConfig,
        rng: &mut Rng64,
    ) -> (Mlp<DigitalLinear>, Vec<EmbeddingTable>, Mlp<DigitalLinear>) {
        let mut bottom_dims = vec![cfg.dense_features];
        bottom_dims.extend_from_slice(&cfg.bottom_mlp);
        let bottom = Mlp::digital(&bottom_dims, Activation::Relu, rng);
        let tables: Vec<EmbeddingTable> = cfg
            .tables
            .iter()
            .map(|&(rows, _)| EmbeddingTable::random(rows, cfg.embedding_dim, rng))
            .collect();
        let mut top_dims = vec![Self::interaction_width(cfg)];
        top_dims.extend_from_slice(&cfg.top_mlp);
        top_dims.push(1);
        let top = Mlp::digital(&top_dims, Activation::Relu, rng);
        (bottom, tables, top)
    }

    /// Length of the separate interaction vector `DotPairwise` needs.
    fn dots_len(cfg: &RecModelConfig) -> usize {
        match cfg.interaction {
            Interaction::Concat => 0,
            Interaction::DotPairwise => Self::interaction_width(cfg),
        }
    }

    /// Width of the interaction output feeding the top MLP.
    pub fn interaction_width(cfg: &RecModelConfig) -> usize {
        let vectors = cfg.tables.len() + 1; // pooled tables + dense stack
        match cfg.interaction {
            Interaction::Concat => vectors * cfg.embedding_dim,
            Interaction::DotPairwise => cfg.embedding_dim + vectors * (vectors - 1) / 2,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &RecModelConfig {
        &self.cfg
    }

    /// The embedding tables.
    pub fn tables(&self) -> &[EmbeddingTable] {
        &self.tables
    }

    /// Total model size in bytes (tables dominate).
    pub fn bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.bytes()).sum()
    }

    /// Predicted click-through rate for one query — the definition the
    /// batched path is held to. Each stack layer runs outputs abreast on
    /// its packed weights, and the latent, the pooled embeddings, the
    /// interaction vector and the stacks' activations are windows of the
    /// one workspace the model owns, so a call checks nothing out and
    /// allocates nothing. The tables are pooled in line, one after the
    /// other: fanning a query's gathers out lost to the wake-up on every
    /// shape measured (21 µs at one thread, 52 µs at two on
    /// [`RecModelConfig::memory_bound`]).
    ///
    /// # Panics
    ///
    /// Panics if the feature counts don't match the configuration.
    pub fn predict(&mut self, dense: &[f32], sparse: &[Vec<usize>]) -> f32 {
        let dim = self.cfg.embedding_dim;
        self.predict_one(dense, |tables, pooled| {
            Self::gather_pools_into(tables, dim, sparse, pooled)
        })
    }

    /// One query through the model, its pooled vectors written by `pool`
    /// into the flat `tables × dim` window it is handed.
    #[inline(always)]
    fn predict_one(
        &mut self,
        dense: &[f32],
        pool: impl FnOnce(&[EmbeddingTable], &mut [f32]),
    ) -> f32 {
        let RecModel { cfg, bottom, tables, top, workspace } = self;
        assert_eq!(dense.len(), cfg.dense_features, "dense feature count mismatch");
        let dim = cfg.embedding_dim;
        let mut rest = workspace.as_mut_slice();
        let vectors = carve(&mut rest, (tables.len() + 1) * dim);
        let dots = carve(&mut rest, Self::dots_len(cfg));
        let (latent, pooled) = vectors.split_at_mut(dim);
        bottom.predict_into(dense, latent, rest);
        pool(tables, pooled);
        let interacted: &[f32] = match cfg.interaction {
            Interaction::Concat => vectors,
            Interaction::DotPairwise => {
                Self::dot_pairwise_into(latent, pooled, dots);
                dots
            }
        };
        let mut logit = [0.0f32];
        top.predict_into(interacted, &mut logit, rest);
        Self::book_mlp(cfg);
        let [logit] = logit;
        sigmoid(logit)
    }

    /// Pools every table's index list into its `dim`-wide window of the
    /// flat `tables × dim` workspace `pooled`, in table order.
    fn gather_pools_into(
        tables: &[EmbeddingTable],
        dim: usize,
        sparse: &[Vec<usize>],
        pooled: &mut [f32],
    ) {
        assert_eq!(sparse.len(), tables.len(), "one index list per table");
        for ((table, idx), window) in tables.iter().zip(sparse).zip(pooled.chunks_exact_mut(dim)) {
            table.gather_pool_into(idx, window);
        }
    }

    /// Books one query's pass through both MLP stacks as `recsys/mlp`.
    /// Weight traffic dominates MLP reads (one f32 per MAC); writes are
    /// the per-layer activation vectors.
    fn book_mlp(cfg: &RecModelConfig) {
        let work = Self::mlp_work(cfg);
        enw_trace::record_span_io("recsys/mlp", work, 4 * work, 4 * Self::mlp_out_elems(cfg));
    }

    /// Elements written across both MLP stacks (per-layer activations
    /// plus the final logit) — the deterministic write traffic paired
    /// with [`mlp_work`](RecModel::mlp_work).
    fn mlp_out_elems(cfg: &RecModelConfig) -> u64 {
        let hidden: usize = cfg.bottom_mlp.iter().chain(&cfg.top_mlp).sum();
        (hidden + 1) as u64
    }

    /// Multiply–accumulates in one pass through both MLP stacks — the
    /// deterministic work units attributed to the dense-compute stage.
    fn mlp_work(cfg: &RecModelConfig) -> u64 {
        let mut work = 0u64;
        let mut prev = cfg.dense_features;
        for &h in &cfg.bottom_mlp {
            work += (prev * h) as u64;
            prev = h;
        }
        let mut prev = Self::interaction_width(cfg);
        for &h in &cfg.top_mlp {
            work += (prev * h) as u64;
            prev = h;
        }
        work + prev as u64 // final logit layer
    }

    /// Convenience: predict from a generated [`SparseQuery`].
    pub fn predict_query(&mut self, q: &SparseQuery) -> f32 {
        self.predict(&q.dense, &q.sparse)
    }

    /// Batched prediction, allocating the result; see
    /// [`predict_batch_into`](RecModel::predict_batch_into), which needs
    /// only `&self` (this wrapper keeps the receiver its callers were
    /// written against). The returned CTRs are bit-identical to calling
    /// [`RecModel::predict_query`] in a loop.
    ///
    /// # Panics
    ///
    /// Panics if any query's feature counts mismatch the configuration.
    pub fn predict_batch<Q: Borrow<SparseQuery> + Sync>(&mut self, queries: &[Q]) -> Vec<f32> {
        let mut out = vec![0.0f32; queries.len()];
        self.predict_batch_into(queries, &mut out);
        out
    }

    /// Batched prediction into a caller-owned buffer (`out` is fully
    /// overwritten): the batch is cut into blocks of 256 queries (a
    /// private, shape-only constant), and within a block each MLP layer
    /// runs once, over all the block's queries abreast, instead of once
    /// per query. Every
    /// CTR is bit-identical to [`RecModel::predict_query`]'s — the
    /// batched layers keep each output's accumulation chain, the gathers
    /// and the sigmoid are the same code — and the trace books what the
    /// per-query loop books. Block boundaries depend only on the batch
    /// size; two or more blocks are dealt to the `enw_parallel` pool, one
    /// block (or any batch at one thread) runs in line.
    ///
    /// `&self`: nothing in the model is consumed by a read, so every
    /// thread works on the one set of weights; queries may be owned or
    /// borrowed (`&[SparseQuery]`, `&[&SparseQuery]`). A warm call
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != queries.len()` or any query's feature
    /// counts mismatch the configuration.
    pub fn predict_batch_into<Q: Borrow<SparseQuery> + Sync>(
        &self,
        queries: &[Q],
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), queries.len(), "one output slot per query");
        enw_parallel::run_chunks_mut(out, BATCH_BLOCK, |start, ctrs| {
            self.predict_block(&queries[start..start + ctrs.len()], ctrs);
        });
    }

    /// One block of [`predict_batch_into`](RecModel::predict_batch_into):
    /// the bottom stack over the block's dense features, every query's
    /// gathers written into its row of the `block × interaction_width`
    /// matrix, the top stack over that matrix into `ctrs`, the sigmoid
    /// in place — all in windows of one scratch check-out.
    fn predict_block<Q: Borrow<SparseQuery>>(&self, queries: &[Q], ctrs: &mut [f32]) {
        let RecModel { cfg, bottom, tables, top, .. } = self;
        let (n, features, dim) = (queries.len(), cfg.dense_features, cfg.embedding_dim);
        let width = Self::interaction_width(cfg);
        let pooled_len = match cfg.interaction {
            Interaction::Concat => 0, // pooled straight into the row
            Interaction::DotPairwise => tables.len() * dim,
        };
        let ping_pong = bottom.workspace_len(n).max(top.workspace_len(n));
        let mut checkout =
            enw_parallel::scratch::take_f32(n * (features + dim + width) + pooled_len + ping_pong);
        let mut rest = checkout.as_mut_slice();
        let dense = carve(&mut rest, n * features);
        let latents = carve(&mut rest, n * dim);
        let interacted = carve(&mut rest, n * width);
        let pooled = carve(&mut rest, pooled_len);
        for (row, q) in dense.chunks_exact_mut(features).zip(queries) {
            let q = q.borrow();
            assert_eq!(q.dense.len(), features, "dense feature count mismatch");
            row.copy_from_slice(&q.dense);
        }
        bottom.predict_batch_into(dense, latents, rest);

        let rows = interacted.chunks_exact_mut(width).zip(latents.chunks_exact(dim));
        for ((row, latent), q) in rows.zip(queries) {
            let sparse = &q.borrow().sparse;
            match cfg.interaction {
                Interaction::Concat => {
                    let (head, tail) = row.split_at_mut(dim);
                    head.copy_from_slice(latent);
                    Self::gather_pools_into(tables, dim, sparse, tail);
                }
                Interaction::DotPairwise => {
                    Self::gather_pools_into(tables, dim, sparse, pooled);
                    Self::dot_pairwise_into(latent, pooled, row);
                }
            }
        }
        top.predict_batch_into(interacted, ctrs, rest);
        for ctr in ctrs {
            Self::book_mlp(cfg);
            *ctr = sigmoid(*ctr);
        }
    }

    /// Predicts from externally supplied pooled embedding vectors (one per
    /// table) instead of this model's own tables — used to evaluate
    /// quantized or otherwise compressed embedding storage against the
    /// same MLP stacks.
    ///
    /// # Panics
    ///
    /// Panics if the vector count or widths mismatch the configuration.
    pub fn predict_with_pooled(&mut self, dense: &[f32], pooled: &[Vec<f32>]) -> f32 {
        let dim = self.cfg.embedding_dim;
        self.predict_one(dense, |tables, flat| {
            assert_eq!(pooled.len(), tables.len(), "one pooled vector per table");
            for (window, p) in flat.chunks_exact_mut(dim).zip(pooled) {
                assert_eq!(p.len(), dim, "pooled width mismatch");
                window.copy_from_slice(p);
            }
        })
    }

    /// The [`Interaction::DotPairwise`] vector into a caller-owned buffer
    /// (`out` is fully overwritten): the dense latent, then the dot
    /// product of every pair among it and the `dim`-wide windows of the
    /// flat `pooled` workspace, pairs in `(i, j > i)` order.
    fn dot_pairwise_into(dense_latent: &[f32], pooled: &[f32], out: &mut [f32]) {
        let dim = dense_latent.len();
        let (head, dots) = out.split_at_mut(dim);
        head.copy_from_slice(dense_latent);
        let vectors = pooled.len() / dim + 1;
        let vec_at = |v: usize| if v == 0 { dense_latent } else { &pooled[(v - 1) * dim..v * dim] };
        let pairs = (0..vectors).flat_map(|i| (i + 1..vectors).map(move |j| (i, j)));
        for (dot, (i, j)) in dots.iter_mut().zip(pairs) {
            *dot = enw_numerics::vector::dot(vec_at(i), vec_at(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> RecModelConfig {
        RecModelConfig {
            dense_features: 8,
            bottom_mlp: vec![16, 8],
            tables: vec![(50, 2), (100, 3)],
            embedding_dim: 8,
            top_mlp: vec![16],
            interaction: Interaction::Concat,
        }
    }

    #[test]
    fn prediction_is_probability() {
        let mut rng = Rng64::new(1);
        let mut m = RecModel::new(&tiny_cfg(), &mut rng);
        let ctr = m.predict(&[0.5; 8], &[vec![1, 2], vec![10, 20, 30]]);
        assert!((0.0..=1.0).contains(&ctr));
    }

    #[test]
    fn pooled_lookup_matches_dense_reference() {
        let mut rng = Rng64::new(2);
        let t = EmbeddingTable::random(20, 4, &mut rng);
        let idx = [3usize, 7, 7, 19];
        let sparse = t.lookup_pool(&idx);
        let dense = t.lookup_pool_dense(&idx);
        for (a, b) in sparse.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn interaction_widths() {
        let mut cfg = tiny_cfg();
        assert_eq!(RecModel::interaction_width(&cfg), 3 * 8);
        cfg.interaction = Interaction::DotPairwise;
        assert_eq!(RecModel::interaction_width(&cfg), 8 + 3);
    }

    #[test]
    fn dot_pairwise_model_runs() {
        let mut rng = Rng64::new(3);
        let cfg = RecModelConfig { interaction: Interaction::DotPairwise, ..tiny_cfg() };
        let mut m = RecModel::new(&cfg, &mut rng);
        let ctr = m.predict(&[0.1; 8], &[vec![0, 1], vec![5]]);
        assert!((0.0..=1.0).contains(&ctr));
    }

    #[test]
    fn builder_validates_cross_field_constraints() {
        let ok = RecModelConfig::builder(tiny_cfg())
            .embedding_dim(4)
            .bottom_mlp(vec![8, 4])
            .build()
            .expect("consistent override");
        assert_eq!(ok.embedding_dim, 4);
        let err = RecModelConfig::builder(tiny_cfg()).embedding_dim(16).build();
        assert!(matches!(err, Err(RecsysError::InvalidConfig { .. })), "{err:?}");
        let err = RecModelConfig::builder(tiny_cfg()).tables(vec![]).build();
        assert!(matches!(err, Err(RecsysError::InvalidConfig { .. })), "{err:?}");
        let err = RecModelConfig::builder(tiny_cfg()).tables(vec![(0, 2)]).build();
        assert!(matches!(err, Err(RecsysError::InvalidConfig { .. })), "{err:?}");
    }

    #[test]
    fn builder_passthrough_matches_preset() {
        let built = RecModelConfig::builder(RecModelConfig::compute_bound())
            .build()
            .expect("presets are valid");
        assert_eq!(built, RecModelConfig::compute_bound());
    }

    #[test]
    fn memory_bound_config_is_gigabytes_scale() {
        // Paper Sec. V-B: "hundreds of MBs to tens of GBs".
        let cfg = RecModelConfig::memory_bound();
        let bytes: u64 =
            cfg.tables.iter().map(|&(rows, _)| (rows * cfg.embedding_dim * 4) as u64).sum();
        assert!(bytes > 500_000_000, "memory-bound config only {bytes} bytes");
    }

    #[test]
    fn different_items_give_different_predictions() {
        let mut rng = Rng64::new(4);
        let mut m = RecModel::new(&tiny_cfg(), &mut rng);
        let a = m.predict(&[0.5; 8], &[vec![1, 2], vec![10]]);
        let b = m.predict(&[0.5; 8], &[vec![40, 41], vec![90]]);
        assert_ne!(a, b);
    }

    #[test]
    fn unrolled_lookup_pool_is_bitwise_stable() {
        // Index counts 1..=20 cover the unrolled path, the remainder path,
        // and repeats; compare against an independent one-row-at-a-time sum.
        let mut rng = Rng64::new(7);
        let t = EmbeddingTable::random(64, 24, &mut rng);
        for n in 1usize..=20 {
            let idx: Vec<usize> = (0..n).map(|_| rng.below(64)).collect();
            let fast = t.lookup_pool(&idx);
            let mut reference = vec![0.0f32; t.dim()];
            for &i in &idx {
                for (p, v) in reference.iter_mut().zip(t.row(i)) {
                    *p += v;
                }
            }
            assert_eq!(
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    /// The predictor before the stacks were frozen, kept as the
    /// reference: row-major `Mlp` stacks drawn as [`RecModel::new`] draws
    /// them, every vector in its own scratch buffer.
    struct RowMajorModel {
        cfg: RecModelConfig,
        bottom: Mlp<DigitalLinear>,
        tables: Vec<EmbeddingTable>,
        top: Mlp<DigitalLinear>,
    }

    impl RowMajorModel {
        fn new(cfg: &RecModelConfig, rng: &mut Rng64) -> Self {
            let (bottom, tables, top) = RecModel::draw(cfg, rng);
            RowMajorModel { cfg: cfg.clone(), bottom, tables, top }
        }

        fn predict(&mut self, dense: &[f32], sparse: &[Vec<usize>]) -> f32 {
            let pooled: Vec<Vec<f32>> =
                self.tables.iter().zip(sparse).map(|(t, idx)| t.lookup_pool(idx)).collect();
            self.predict_with_pooled(dense, &pooled)
        }

        fn predict_with_pooled(&mut self, dense: &[f32], pooled: &[Vec<f32>]) -> f32 {
            let dim = self.cfg.embedding_dim;
            let mut dense_latent = enw_parallel::scratch::take_f32(dim);
            self.bottom.predict_into(dense, &mut dense_latent);
            let flat = pooled.concat();
            let mut interacted =
                enw_parallel::scratch::take_f32(RecModel::interaction_width(&self.cfg));
            match self.cfg.interaction {
                Interaction::Concat => {
                    interacted[..dim].copy_from_slice(&dense_latent);
                    interacted[dim..].copy_from_slice(&flat);
                }
                Interaction::DotPairwise => {
                    interacted[..dim].copy_from_slice(&dense_latent);
                    let vectors = flat.len() / dim + 1;
                    let vec_at = |v: usize| {
                        if v == 0 {
                            &dense_latent[..]
                        } else {
                            &flat[(v - 1) * dim..v * dim]
                        }
                    };
                    let mut k = dim;
                    for i in 0..vectors {
                        for j in (i + 1)..vectors {
                            interacted[k] = enw_numerics::vector::dot(vec_at(i), vec_at(j));
                            k += 1;
                        }
                    }
                }
            }
            let mut logit = [0.0f32];
            self.top.predict_into(&interacted, &mut logit);
            sigmoid(logit[0])
        }
    }

    #[test]
    fn predict_matches_the_row_major_predictor_bitwise() {
        use crate::trace::TraceGenerator;
        // Both interaction operators; stacks of one to three layers with
        // widths on both sides of a packed strip.
        for interaction in [Interaction::Concat, Interaction::DotPairwise] {
            for (bottom_mlp, top_mlp) in
                [(vec![8], vec![]), (vec![16, 8], vec![16]), (vec![33, 9, 8], vec![40, 7])]
            {
                let cfg = RecModelConfig {
                    bottom_mlp,
                    top_mlp,
                    tables: vec![(200, 3), (300, 9), (150, 1)],
                    interaction,
                    ..tiny_cfg()
                };
                let mut model = RecModel::new(&cfg, &mut Rng64::new(11));
                let mut reference = RowMajorModel::new(&cfg, &mut Rng64::new(11));
                assert_eq!(model.tables, reference.tables, "same draws, same order");
                let mut rng = Rng64::new(12);
                let gen = TraceGenerator::new(&cfg, 1.05);
                for _ in 0..24 {
                    let q = gen.query(&mut rng);
                    let want = reference.predict(&q.dense, &q.sparse).to_bits();
                    assert_eq!(model.predict(&q.dense, &q.sparse).to_bits(), want, "{cfg:?}");
                    let pooled: Vec<Vec<f32>> =
                        (0..3).map(|_| (0..8).map(|_| rng.uniform_f32() - 0.5).collect()).collect();
                    let want = reference.predict_with_pooled(&q.dense, &pooled).to_bits();
                    let got = model.predict_with_pooled(&q.dense, &pooled).to_bits();
                    assert_eq!(got, want, "{cfg:?}, supplied pooled vectors");
                }
            }
        }
    }

    #[test]
    fn predict_batch_bitwise_matches_serial_across_thread_counts() {
        use crate::trace::TraceGenerator;
        let mut rng = Rng64::new(8);
        let cfg = RecModelConfig {
            tables: vec![(200, 12), (300, 20), (150, 4), (400, 28)],
            ..tiny_cfg()
        };
        let mut m = RecModel::new(&cfg, &mut rng);
        let gen = TraceGenerator::new(&cfg, 1.05);
        let queries = gen.batch(37, &mut rng);
        let serial: Vec<u32> = queries.iter().map(|q| m.predict_query(q).to_bits()).collect();
        for threads in [1usize, 3, 8] {
            let batched = enw_parallel::with_threads(threads, || m.predict_batch(&queries));
            let bits: Vec<u32> = batched.iter().map(|v| v.to_bits()).collect();
            assert_eq!(serial, bits, "threads = {threads}");
        }
    }

    #[test]
    fn predict_batch_into_matches_predict_query_around_every_block_edge() {
        use crate::trace::TraceGenerator;
        // Batch sizes on both sides of one and two block boundaries, both
        // interaction operators, owned and borrowed queries, and thread
        // counts that deal the blocks unevenly.
        let sizes = [1, BATCH_BLOCK - 1, BATCH_BLOCK, BATCH_BLOCK + 1, 2 * BATCH_BLOCK + 3];
        for interaction in [Interaction::Concat, Interaction::DotPairwise] {
            let mut rng = Rng64::new(9);
            let cfg = RecModelConfig {
                tables: vec![(200, 3), (300, 9), (150, 1)],
                top_mlp: vec![16, 5],
                interaction,
                ..tiny_cfg()
            };
            let mut m = RecModel::new(&cfg, &mut rng);
            let queries = TraceGenerator::new(&cfg, 1.05).batch(2 * BATCH_BLOCK + 3, &mut rng);
            let serial: Vec<u32> = queries.iter().map(|q| m.predict_query(q).to_bits()).collect();
            let borrowed: Vec<&SparseQuery> = queries.iter().collect();
            for n in sizes {
                for threads in [1usize, 2, 3, 8] {
                    let mut owned_out = vec![f32::NAN; n];
                    let mut borrowed_out = vec![f32::NAN; n];
                    enw_parallel::with_threads(threads, || {
                        m.predict_batch_into(&queries[..n], &mut owned_out);
                        m.predict_batch_into(&borrowed[..n], &mut borrowed_out);
                    });
                    for out in [owned_out, borrowed_out] {
                        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            serial[..n],
                            bits,
                            "{interaction:?}, n = {n}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn predict_is_bitwise_the_same_at_any_thread_count() {
        // `predict` pools its tables in line, so the thread count has
        // nothing to act on — on the one preset shape whose gathers used
        // to fan out (16 tables x 32 lookups x dim 32), shrunk in rows.
        let mut rng = Rng64::new(10);
        let cfg = RecModelConfig { tables: vec![(500, 32); 16], ..RecModelConfig::memory_bound() };
        let mut m = RecModel::new(&cfg, &mut rng);
        let q = crate::trace::TraceGenerator::new(&cfg, 1.0).query(&mut rng);
        let at = |m: &mut RecModel, t| enw_parallel::with_threads(t, || m.predict_query(&q));
        let serial = at(&mut m, 1).to_bits();
        for threads in [2usize, 8] {
            assert_eq!(at(&mut m, threads).to_bits(), serial, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "bottom MLP must be non-empty and end")]
    fn mismatched_bottom_mlp_panics() {
        let mut rng = Rng64::new(5);
        let cfg = RecModelConfig { bottom_mlp: vec![16, 12], ..tiny_cfg() };
        RecModel::new(&cfg, &mut rng);
    }

    #[test]
    #[should_panic(expected = "empty multi-hot")]
    fn empty_lookup_panics() {
        let mut rng = Rng64::new(6);
        EmbeddingTable::random(10, 4, &mut rng).lookup_pool(&[]);
    }
}
