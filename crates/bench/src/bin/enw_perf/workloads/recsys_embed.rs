//! `recsys_embed` — Sec. V: a memory-bound DLRM, 8 tables × 500,000 rows
//! × 32 floats = 512 MB against 4 MiB of L2 per core. One batch draws
//! rows Zipf(1.0), the other uniformly; the uniform half defeats caches,
//! so a gain that only helps hot rows is visible as such.

use super::{seconds, LayerCtx, Rep, Size, Workload};
use crate::defs::LayerValues;
use crate::harness::fma_chains;
use crate::spans::Spans;
use crate::stats::Fnv;
use enw_core::numerics::rng::Rng64;
use enw_core::recsys::characterize::RooflineMachine;
use enw_core::recsys::model::{Interaction, RecModel, RecModelConfig};
use enw_core::recsys::serving::batch_latency;
use enw_core::recsys::trace::{SparseQuery, TraceGenerator};
use std::hint::black_box;

pub struct RecsysEmbed {
    size: Size,
    model: RecModel,
    zipf: Vec<SparseQuery>,
    uniform: Vec<SparseQuery>,
    /// Times both batches run per rep.
    rounds: usize,
    table_build_s: f64,
}

impl RecsysEmbed {
    pub fn build(seed: u64, size: Size) -> Self {
        let (rows, batch) = size.pick((500_000, 8192), (2_000, 48));
        let cfg = RecModelConfig {
            dense_features: 32,
            bottom_mlp: vec![64, 32],
            tables: vec![(rows, 32); 8],
            embedding_dim: 32,
            top_mlp: vec![64],
            interaction: Interaction::Concat,
        };
        let mut rng = Rng64::new(seed);
        let (model, table_build_s) = seconds(|| RecModel::new(&cfg, &mut rng));
        let zipf = TraceGenerator::new(&cfg, 1.0).batch(batch, &mut rng);
        let uniform = TraceGenerator::new(&cfg, 0.0).batch(batch, &mut rng);
        RecsysEmbed { size, model, zipf, uniform, rounds: size.pick(6, 1), table_build_s }
    }

    fn queries_per_rep(&self) -> u64 {
        (self.rounds * (self.zipf.len() + self.uniform.len())) as u64
    }
}

impl Workload for RecsysEmbed {
    fn rep(&mut self, spans: &mut Spans, check: bool) -> Rep {
        let mut out_zipf = vec![0.0f32; self.zipf.len()];
        let mut out_uniform = vec![0.0f32; self.uniform.len()];

        let root = spans.open("rep");
        for _ in 0..self.rounds {
            spans.time("recsys.batch_zipf", || {
                self.model.predict_batch_into(&self.zipf, &mut out_zipf)
            });
            spans.time("recsys.batch_uniform", || {
                self.model.predict_batch_into(&self.uniform, &mut out_uniform);
            });
        }
        let work = spans.close(root);

        // Every round computes the same predictions; the last one's stand
        // for the rep.
        let ops = self.queries_per_rep();
        let mut digest = Fnv::new();
        digest.f32s(&out_zipf);
        digest.f32s(&out_uniform);
        let outputs = || out_zipf.iter().chain(&out_uniform);
        let out_of_range = outputs().filter(|p| !(0.0..=1.0).contains(*p)).count();
        let mut equal = 0;
        if check {
            let queries = self.zipf.iter().chain(&self.uniform);
            for (q, batched) in queries.zip(outputs()) {
                equal += usize::from(self.model.predict_query(q).to_bits() == batched.to_bits());
            }
        }
        let cfg = self.model.config();
        let batches = (2 * self.rounds) as f64;
        let sim_s =
            batches * batch_latency(cfg, self.zipf.len() as u64, &RooflineMachine::server_cpu());
        digest.f64(sim_s);
        Rep {
            work,
            ops,
            failed: (out_of_range * self.rounds) as u64,
            sim_ns: sim_s * 1e9,
            quality: equal as f64 / (self.zipf.len() + self.uniform.len()) as f64,
            digest: digest.0,
        }
    }

    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut LayerValues) {
        let dim = self.model.config().embedding_dim;
        let row_bytes = (4 * dim) as f64;
        out.set("recsys.table_build_s", self.table_build_s);
        let per_half = (self.rounds * self.zipf.len() * ctx.traced_reps) as f64;
        out.set("recsys.qps_zipf", per_half / ctx.spans.busy_s("recsys.batch_zipf"));
        out.set("recsys.qps_uniform", per_half / ctx.spans.busy_s("recsys.batch_uniform"));
        // Rows and bytes as the library books them per gather call.
        let gathers = ctx.harvested("recsys/gather_pool");
        out.set("recsys.rows_gathered", (gathers.work / dim as u64) as f64);
        out.set("recsys.bytes_gathered", gathers.bytes_read as f64);

        // The gather kernel alone, on the workload's own index lists
        // (both halves, table 0), one thread.
        let table = &self.model.tables()[0];
        let lists: Vec<&[usize]> = self
            .zipf
            .iter()
            .zip(&self.uniform)
            .flat_map(|(z, u)| [z.sparse[0].as_slice(), u.sparse[0].as_slice()])
            .take(self.size.pick(2048, 16))
            .collect();
        let rows: usize = lists.iter().map(|l| l.len()).sum();
        let mut pooled = vec![0.0f32; dim];
        let pass = self.size.probe_ns(1, || {
            for list in &lists {
                table.gather_pool_into(list, &mut pooled);
            }
        });
        out.set("recsys.gather_pool.ns_per_row", pass / rows as f64);
        out.set("recsys.gather_gbs", rows as f64 * row_bytes / pass);

        let q = self.zipf[0].clone();
        let pooled_vecs: Vec<Vec<f32>> =
            self.model.tables().iter().zip(&q.sparse).map(|(t, idx)| t.lookup_pool(idx)).collect();
        let mlp = self.size.probe_ns(64, || {
            black_box(self.model.predict_with_pooled(&q.dense, &pooled_vecs));
        });
        out.set("recsys.mlp.ns_per_query", mlp);

        // The host's roofline for one thread, measured in this run: a
        // stream triad over 3 × 128 MiB of f64 (bytes counted as two reads
        // and one write per element), and independent multiply–add chains
        // in registers.
        let n = self.size.pick(128 << 20, 1 << 16) / 8;
        let (b, c) = (vec![1.5f64; n], vec![0.25f64; n]);
        let mut a = vec![0.0f64; n];
        let triad = self.size.probe_ns(1, || {
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = b + 3.0 * c;
            }
        });
        out.set("host.triad_gbs", (3 * 8 * n) as f64 / triad);

        let iters = self.size.pick(1 << 16, 16);
        let chains = self.size.probe_ns(1, || {
            fma_chains(iters);
        });
        out.set("host.fma_gflops", (2 * 64 * iters) as f64 / chains);
    }
}
