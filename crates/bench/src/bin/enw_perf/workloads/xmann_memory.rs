//! `xmann_memory` — Sec. III: the differentiable-memory kernels of
//! X-MANN over a 65,536 × 64 memory (16 MiB streamed per kernel against
//! 4 MiB of L2). Bandwidth-bound; the soft write sits beside the reads
//! so a read-only trick that slows writes shows.

use super::{LayerCtx, Rep, Size, Workload};
use crate::defs::LayerValues;
use crate::spans::Spans;
use crate::stats::Fnv;
use enw_core::mann::memory::Similarity;
use enw_core::numerics::rng::Rng64;
use enw_core::numerics::vector::{argmax, softmax_into};
use enw_core::xmann::arch::{Xmann, XmannConfig};
use enw_core::xmann::cost::{Cost, XmannCostParams};

const BETA: f32 = 5.0;

pub struct XmannMemory {
    size: Size,
    rows: Vec<Vec<f32>>,
    queries: Vec<Vec<f32>>,
    erase: Vec<f32>,
    /// Model outputs of the last rep.
    passes: usize,
    energy_pj: f64,
}

impl XmannMemory {
    pub fn build(seed: u64, size: Size) -> Self {
        let (slots, dim) = size.pick((65_536, 64), (512, 16));
        let mut rng = Rng64::new(seed);
        let rows: Vec<Vec<f32>> =
            (0..slots).map(|_| (0..dim).map(|_| rng.range(-0.5, 0.5) as f32).collect()).collect();
        // Each query is a stored row under noise, so "nearest" has an answer.
        let queries = (0..size.pick(128, 6))
            .map(|_| {
                rows[rng.below(slots)]
                    .iter()
                    .map(|&v| v + rng.normal_with(0.0, 0.3) as f32)
                    .collect()
            })
            .collect();
        XmannMemory { size, rows, queries, erase: vec![0.5; dim], passes: 0, energy_pj: 0.0 }
    }

    fn fresh(&self) -> Xmann {
        let (slots, dim) = (self.rows.len(), self.erase.len());
        let mut x = Xmann::new(slots, dim, XmannConfig::default(), XmannCostParams::default());
        x.load_memory(&self.rows);
        x
    }
}

impl Workload for XmannMemory {
    fn rep(&mut self, spans: &mut Spans, check: bool) -> Rep {
        let (slots, dim) = (self.rows.len(), self.erase.len());
        let mut sim = vec![0.0f32; slots];
        let mut weights = vec![0.0f32; slots];
        let mut read = vec![0.0f32; dim];
        let mut reference = vec![0.0f32; if check { slots } else { 0 }];
        let mut digest = Fnv::new();
        let mut cost = Cost::zero();
        let (mut failed, mut agree) = (0u64, 0u64);

        let root = spans.open("rep");
        let mut x = spans.time("xmann.load_memory", || self.fresh());
        for q in &self.queries {
            let c_sim = spans.time("xmann.similarity", || x.similarity_into(q, &mut sim));
            let c_addr = spans
                .time("xmann.content_address", || x.content_address_into(q, BETA, &mut weights));
            let c_read = spans.time("xmann.soft_read", || x.soft_read_into(&weights, &mut read));
            let c_write =
                spans.time("xmann.soft_write", || x.soft_write(&weights, &self.erase, q).cost);

            let check_span = spans.open("host.check");
            let best = argmax(&sim);
            let sum: f32 = weights.iter().sum();
            failed += u64::from(!(read.iter().all(|v| v.is_finite()) && (sum - 1.0).abs() < 1e-3));
            if check {
                x.memory().similarities_into(q, Similarity::Cosine, &mut reference);
                agree += u64::from(argmax(&reference) == best);
            }
            digest.u64(best as u64);
            digest.f32s(&read);
            for c in [c_sim, c_addr, c_read, c_write] {
                digest.f64(c.energy_pj);
                digest.f64(c.latency_ns);
                cost += c;
            }
            spans.close(check_span);
        }
        let work = spans.close(root);
        // The last write is only visible in the memory itself.
        for slot in (0..slots).step_by(64) {
            digest.f32s(x.memory().slot(slot));
        }
        self.passes = x.passes();
        self.energy_pj = cost.energy_pj;
        let ops = self.queries.len() as u64;
        Rep {
            work,
            ops,
            failed,
            sim_ns: cost.latency_ns,
            quality: agree as f64 / ops as f64,
            digest: digest.0,
        }
    }

    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut LayerValues) {
        let slots = self.rows.len();
        out.set("xmann.queries", self.queries.len() as f64);
        out.set("xmann.passes", self.passes as f64);
        out.set("xmann.sim_energy_uj", self.energy_pj / 1e6);
        let per_slot = 1.0 / slots as f64;
        let (mut bytes, mut busy_s) = (0u64, 0.0);
        for kernel in ["similarity", "content_address", "soft_read", "soft_write"] {
            let span = format!("xmann.{kernel}");
            out.set_timing(
                &format!("{span}.ns_per_slot"),
                &ctx.spans.durations_ns(&span),
                per_slot,
            );
            busy_s += ctx.spans.busy_s(&span);
        }
        // Bytes as the library books them from the shapes (content
        // addressing runs the similarity kernel again).
        for kernel in ["xmann/similarity", "xmann/soft_read", "xmann/soft_write"] {
            bytes += ctx.harvested(kernel).bytes_moved();
        }
        out.set("xmann.stream_gbs", (bytes * ctx.traced_reps as u64) as f64 / (busy_s * 1e9));

        let x = self.fresh();
        let q = &self.queries[0];
        let mut scores = vec![0.0f32; slots];
        let cosine = || x.memory().similarities_into(q, Similarity::Cosine, &mut scores);
        out.set("mann.similarities.ns_per_slot", self.size.probe_ns(1, cosine) * per_slot);

        let logits: Vec<f32> =
            (0..self.size.pick(65_536, 256)).map(|i| (i % 251) as f32 / 251.0).collect();
        let mut probs = vec![0.0f32; logits.len()];
        out.set(
            "numerics.softmax_65536.ns",
            self.size.probe_ns(4, || softmax_into(&logits, BETA, &mut probs)),
        );
    }
}
