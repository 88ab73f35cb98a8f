//! EXT-3 (extension beyond the paper's tables) — sequence-aware
//! recommendation and SLA-bounded serving (paper Sec. V-B: "emerging
//! recommendation models rely on explicitly modeling sequences of user
//! interactions and interests with RNNs and attention", and inference
//! runs under strict latency targets).
//!
//! Part 1 quantifies what DIN-style attention adds per candidate as the
//! interaction history grows. Part 2 maps the throughput/latency frontier
//! of the paper's two model regimes under SLAs.

use crate::run::Run;
use enw_core::numerics::rng::Rng64;
use enw_core::recsys::characterize::RooflineMachine;
use enw_core::recsys::model::RecModelConfig;
use enw_core::recsys::sequence::{InterestModel, InterestModelConfig};
use enw_core::recsys::serving;
use enw_core::report::Table;

pub fn run(run: &mut Run) {
    println!("== EXT-3 [extension of Sec. V-B: attention models + SLA serving] ==");
    println!("claim: sequence attention adds per-candidate cost linear in history; SLAs cap");
    println!("the batching that memory-bound models barely benefit from anyway\n");

    let mut rng = Rng64::new(33);
    let cfg = InterestModelConfig::default();
    let mut model = InterestModel::new(&cfg, &mut rng);

    // Behaviour: attention reacts to the history.
    let dense = vec![0.2f32; cfg.dense_features];
    let relevant: Vec<usize> = vec![42, 42, 43, 44];
    let irrelevant: Vec<usize> = vec![9000, 9100, 9200, 9300];
    let ctr_rel = model.predict(&relevant, 42, &dense);
    let ctr_irr = model.predict(&irrelevant, 42, &dense);
    println!(
        "candidate 42: CTR {ctr_rel:.3} with related history vs {ctr_irr:.3} with unrelated history\n"
    );

    let mut prof = Table::new(&["history length", "KFLOPs/prediction", "KB moved/prediction"]);
    for &h in &[1usize, 10, 50, 200, 1000] {
        let p = model.prediction_profile(h);
        prof.row_owned(vec![
            format!("{h}"),
            format!("{:.2}", p.flops as f64 / 1e3),
            format!("{:.2}", p.bytes as f64 / 1e3),
        ]);
    }
    println!("-- attention cost vs interaction-history length --");
    run.emit(&prof);

    // Part 2: SLA-bounded serving.
    let machine = RooflineMachine::server_cpu();
    let mut sla_table = Table::new(&[
        "model",
        "SLA",
        "max batch",
        "throughput (QPS)",
        "batch-1 QPS",
        "batching gain",
    ]);
    for (name, cfg) in [
        ("RM-compute", RecModelConfig::compute_bound()),
        ("RM-memory", RecModelConfig::memory_bound()),
    ] {
        for &sla_ms in &[1.0f64, 10.0, 100.0] {
            let sla = sla_ms / 1e3;
            let row = match serving::try_max_batch_under_sla(&cfg, &machine, sla, 65_536).ok() {
                None => vec![
                    name.to_string(),
                    format!("{sla_ms} ms"),
                    "-".into(),
                    "unreachable".into(),
                    "-".into(),
                    "-".into(),
                ],
                Some(b) => {
                    let qps = serving::throughput(&cfg, b, &machine);
                    let qps1 = serving::throughput(&cfg, 1, &machine);
                    vec![
                        name.to_string(),
                        format!("{sla_ms} ms"),
                        format!("{b}"),
                        format!("{qps:.0}"),
                        format!("{qps1:.0}"),
                        format!("{:.1}x", qps / qps1),
                    ]
                }
            };
            sla_table.row_owned(row);
        }
    }
    println!("-- SLA-bounded serving frontier --");
    run.emit(&sla_table);
    println!("Reading: attention cost scales linearly with history (another memory-dominated");
    println!("operator once histories get long), and batching under an SLA buys the MLP-heavy");
    println!("model an order of magnitude more throughput than the embedding-heavy one —");
    println!("the flexibility-vs-specialization tension the paper closes on.");
}
