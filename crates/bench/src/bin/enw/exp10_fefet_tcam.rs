//! E10 — 2-FeFET TCAM cells vs 16T CMOS (paper Sec. IV-C, ref. \[9\]):
//! "replacing 16T CMOS TCAMs with 2 FeFET TCAMs can further reduce the
//! latency and energy for memory search operations in MANNs by 1.1X and
//! 2.4X respectively", with the density headroom enabling larger MANN
//! memories.

use crate::run::Run;
use enw_core::cam::array::{TcamArray, TcamConfig};
use enw_core::cam::cells;
use enw_core::numerics::bits::BitVec;
use enw_core::numerics::rng::Rng64;
use enw_core::report::{energy, latency, Table};

pub fn run(run: &mut Run) {
    let mut rng = Rng64::new(10);

    let mut table = Table::new(&[
        "cell",
        "transistors",
        "search energy (512x64)",
        "search latency",
        "cell area (um^2)",
        "64-bit words per mm^2",
        "endurance (cycles)",
    ]);
    for tech in [cells::cmos_16t(), cells::fefet_2t()] {
        let mut cam = TcamArray::new(64, tech, TcamConfig::default());
        for _ in 0..512 {
            let w: BitVec = (0..64).map(|_| rng.bernoulli(0.5)).collect();
            cam.write(&w);
        }
        let q: BitVec = (0..64).map(|_| rng.bernoulli(0.5)).collect();
        let (_, cost) = cam.search_nearest(&q);
        table.row_owned(vec![
            tech.name.to_string(),
            format!("{}", tech.transistors),
            energy(cost.energy_pj),
            latency(cost.latency_ns),
            format!("{:.2}", tech.cell_area_um2),
            format!("{}", tech.words_per_area(64, 1.0)),
            tech.endurance.map_or("unlimited".to_string(), |e| format!("{e:.0e}")),
        ]);
    }
    run.emit(&table);

    let c = cells::cmos_16t();
    let f = cells::fefet_2t();
    let energy_x = c.search_bit_pj / f.search_bit_pj;
    let latency_x = c.search_ns / f.search_ns;
    let density_x = c.cell_area_um2 / f.cell_area_um2;
    println!(
        "FeFET vs CMOS: {energy_x:.1}x search energy, {latency_x:.2}x search latency, {density_x:.1}x density",
    );
    // Paper-fidelity pins (Sec. IV-C: 2.4x energy, 1.1x latency, ~8x density).
    for (name, v, lo, hi) in [
        ("search_energy_gain", energy_x, 2.2, 2.6),
        ("search_latency_gain", latency_x, 1.05, 1.15),
        ("density_gain", density_x, 7.0, 9.0),
    ] {
        run.gate(name, (lo..=hi).contains(&v), format!("{v:.2}x; band {lo}-{hi}x"));
    }
    println!("paper reference: 2.4x energy, 1.1x latency; compactness 'could also enable larger");
    println!("MANN memories'. The endurance column records the open FeFET reliability question.");
}
