//! `tcam_fewshot` — Sec. IV: few-shot retrieval over LSH signatures in a
//! banked TCAM, with a lifelong key–value memory updated beside it. The
//! only workload dominated by `cam` and the `numerics::bits` popcount
//! path, and the one where `plan_chunks` fanning out too-small work
//! decides the result.

use super::{LayerCtx, Rep, Size, Workload};
use crate::defs::LayerValues;
use crate::spans::Spans;
use crate::stats::Fnv;
use enw_core::cam::array::TcamConfig;
use enw_core::cam::bank::TcamBank;
use enw_core::cam::cells;
use enw_core::cam::lsh_memory::TcamKeyValueMemory;
use enw_core::mann::encoding::TernaryWord;
use enw_core::mann::lsh::RandomHyperplaneLsh;
use enw_core::numerics::bits::BitVec;
use enw_core::numerics::rng::Rng64;
use enw_core::xmann::cost::Cost;

const DIM: usize = 64;
const PLANES: usize = 256;
const ROWS_PER_ARRAY: usize = 512;

pub struct TcamFewshot {
    size: Size,
    seed: u64,
    lsh: RandomHyperplaneLsh,
    /// Support set: signature and class of every stored word.
    support: Vec<(BitVec, usize)>,
    /// Query stream: embedding and true class.
    samples: Vec<(Vec<f32>, usize)>,
    kv_capacity: usize,
    /// Model outputs of the last rep.
    bank_words: u64,
    energy_pj: f64,
}

/// A class prototype under isotropic noise.
fn draw(proto: &[f32], rng: &mut Rng64) -> Vec<f32> {
    proto.iter().map(|&v| v + rng.normal_with(0.0, 1.0) as f32).collect()
}

impl TcamFewshot {
    pub fn build(seed: u64, size: Size) -> Self {
        let (words, classes, samples) = size.pick((32_768, 1024, 6000), (96, 8, 24));
        let mut rng = Rng64::new(seed);
        let lsh = RandomHyperplaneLsh::new(PLANES, DIM, &mut rng);
        let protos: Vec<Vec<f32>> =
            (0..classes).map(|_| (0..DIM).map(|_| rng.normal() as f32).collect()).collect();
        let support = (0..words)
            .map(|w| (lsh.encode(&draw(&protos[w % classes], &mut rng)), w % classes))
            .collect();
        let samples = (0..samples)
            .map(|_| {
                let class = rng.below(classes);
                (draw(&protos[class], &mut rng), class)
            })
            .collect();
        TcamFewshot {
            size,
            seed,
            lsh,
            support,
            samples,
            kv_capacity: size.pick(4096, 16),
            bank_words: 0,
            energy_pj: 0.0,
        }
    }

    fn fresh_bank(&self) -> (TcamBank, Cost) {
        let mut bank =
            TcamBank::new(PLANES, ROWS_PER_ARRAY, cells::fefet_2t(), TcamConfig::default());
        let mut cost = Cost::zero();
        for (sig, _) in &self.support {
            cost += bank.write(sig.clone()).1;
        }
        (bank, cost)
    }
}

impl Workload for TcamFewshot {
    fn rep(&mut self, spans: &mut Spans, _check: bool) -> Rep {
        let mut digest = Fnv::new();
        let (mut failed, mut correct) = (0u64, 0u64);

        let root = spans.open("rep");
        let (mut bank, mut cost) = spans.time("cam.bank_rebuild", || self.fresh_bank());
        let mut kv = TcamKeyValueMemory::new(
            self.kv_capacity,
            DIM,
            PLANES,
            cells::fefet_2t(),
            TcamConfig::default(),
            &mut Rng64::new(self.seed),
        );
        for (x, class) in &self.samples {
            let sig = spans.time("cam.lsh_encode", || self.lsh.encode(x));
            let (hit, c_search) = spans.time("cam.bank_search", || bank.search_nearest(&sig));
            let (slot, c_update) = spans.time("cam.kv_update", || kv.update(x, *class));
            match hit {
                Some(h) if h.index < self.support.len() && slot < self.kv_capacity => {
                    correct += u64::from(self.support[h.index].1 == *class);
                    digest.u64(h.index as u64);
                    digest.u64(h.distance as u64);
                }
                _ => failed += 1,
            }
            digest.u64(slot as u64);
            for c in [c_search, c_update] {
                digest.f64(c.energy_pj);
                digest.f64(c.latency_ns);
                cost += c;
            }
        }
        let work = spans.close(root);

        let ops = self.samples.len() as u64;
        self.bank_words = bank.len() as u64;
        self.energy_pj = cost.energy_pj;
        Rep {
            work,
            ops,
            failed,
            sim_ns: cost.latency_ns,
            quality: correct as f64 / ops as f64,
            digest: digest.0,
        }
    }

    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut LayerValues) {
        let words = self.support.len();
        // Both as the library counts them: the bank searches its own
        // recorder booked over one rep, and the words the bank held when
        // the rep ended (it is only appended to). The key–value memory's
        // array keeps its counters private.
        let booked = ctx.harvested("cam/search_nearest");
        out.set("cam.searches", booked.count as f64);
        out.set("cam.writes", self.bank_words as f64);
        out.set("cam.sim_energy_nj", self.energy_pj / 1e3);
        out.set_timing("cam.lsh_encode.ns", &ctx.spans.durations_ns("cam.lsh_encode"), 1.0);
        let searches = ctx.spans.durations_ns("cam.bank_search");
        out.set_timing("cam.bank_search.ns_per_word", &searches, 1.0 / words as f64);
        out.set_timing("cam.kv_update.ns", &ctx.spans.durations_ns("cam.kv_update"), 1.0);
        out.set_timing(
            "cam.bank_write.ns",
            &ctx.spans.durations_ns("cam.bank_rebuild"),
            1.0 / words as f64,
        );
        // Limb bytes as the library books them from the bank's shape.
        let bytes = booked.bytes_read * ctx.traced_reps as u64;
        out.set("cam.search_gbs", bytes as f64 / (ctx.spans.busy_s("cam.bank_search") * 1e9));

        // The other search path over the same bank: a ternary pattern
        // with a quarter of its bits wildcarded.
        let (mut bank, _) = self.fresh_bank();
        let mut rng = Rng64::new(self.seed);
        let care: BitVec = (0..PLANES).map(|_| rng.below(4) != 0).collect();
        let pattern = TernaryWord::new(self.support[0].0.clone(), care);
        let ternary = self.size.probe_ns(4, || drop(bank.search_ternary(&pattern)));
        out.set("cam.search_ternary.ns_per_word", ternary / words as f64);
    }
}
