//! E9 — Memory-search cost: 16T CMOS TCAM vs cosine on GPU + DRAM (paper
//! Sec. IV-B2: "24X and 2,582X reductions in energy and latency,
//! respectively, for memory search operation").

use crate::run::Run;
use enw_core::cam::array::TcamConfig;
use enw_core::cam::baseline::compare_search;
use enw_core::cam::cells;
use enw_core::numerics::rng::Rng64;
use enw_core::report::{energy, latency, ratio, Table};
use enw_core::xmann::cost::GpuCostParams;

pub fn run(run: &mut Run) {
    let mut rng = Rng64::new(9);
    let gpu = GpuCostParams::default();

    let mut table = Table::new(&[
        "entries",
        "signature bits",
        "GPU energy",
        "TCAM energy",
        "energy reduction",
        "GPU latency",
        "TCAM latency",
        "latency reduction",
    ]);
    for &entries in &[512usize, 4096, 65_536] {
        let cmp =
            compare_search(entries, 64, cells::cmos_16t(), TcamConfig::default(), &gpu, &mut rng);
        table.row_owned(vec![
            format!("{entries}"),
            "64".into(),
            energy(cmp.gpu.energy_pj),
            energy(cmp.tcam.energy_pj),
            ratio(cmp.energy_reduction()),
            latency(cmp.gpu.latency_ns),
            latency(cmp.tcam.latency_ns),
            ratio(cmp.latency_reduction()),
        ]);
        if entries == 512 {
            // Paper-fidelity pins (Sec. IV-B2: 24x energy, 2582x latency).
            for (name, v, lo, hi) in [
                ("energy_reduction_512", cmp.energy_reduction(), 20.0, 30.0),
                ("latency_reduction_512", cmp.latency_reduction(), 2000.0, 3000.0),
            ] {
                run.gate(name, (lo..=hi).contains(&v), format!("{v:.1}x; band {lo}-{hi}x"));
            }
        }
    }
    run.emit(&table);

    // Match-line segmentation ablation at the paper's configuration.
    let mut seg = Table::new(&["ML segments", "TCAM energy", "TCAM latency"]);
    for &segments in &[1usize, 2, 4, 8] {
        let cmp =
            compare_search(512, 64, cells::cmos_16t(), TcamConfig { segments }, &gpu, &mut rng);
        seg.row_owned(vec![
            format!("{segments}"),
            energy(cmp.tcam.energy_pj),
            latency(cmp.tcam.latency_ns),
        ]);
    }
    println!("-- ablation: match-line segmentation (selective precharge) --");
    run.emit(&seg);
    println!("paper reference (512 entries): 24x energy, 2582x latency reduction");
    println!("Reading: a single parallel search replaces a full DRAM stream + two GPU kernels;");
    println!("the latency gap is dominated by kernel-launch overheads the TCAM simply never pays,");
    println!("and it widens with memory size (the TCAM search latency is row-independent).");
}
