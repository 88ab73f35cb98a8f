//! E1 — Crossbar VMM and parallel rank-1 stochastic update (paper Fig. 1,
//! Sec. II-A).
//!
//! Demonstrates that forward, backward and update each take a *constant*
//! number of crossbar operations regardless of array size (the O(1)
//! property), that the analog forward pass matches a digital reference,
//! and that the stochastic pulse update realizes the intended rank-1
//! gradient step in expectation. `--smoke` stops the size sweep at
//! 256 x 256 and runs the pulse-train ablation on a 64 x 64 tile.

use crate::run::Run;
use enw_core::crossbar::devices;
use enw_core::crossbar::tile::{AnalogTile, TileConfig};
use enw_core::nn::backend::LinearBackend;
use enw_core::numerics::matrix::Matrix;
use enw_core::numerics::rng::Rng64;
use enw_core::report::Table;

pub fn run(run: &mut Run) {
    let mut rng = Rng64::new(42);
    let mut table = Table::new(&[
        "array (out x in)",
        "fwd xbar ops",
        "bwd xbar ops",
        "upd xbar ops",
        "pulses/device/update",
        "max |analog - digital| fwd",
        "update rel. error",
    ]);
    let sizes: &[usize] = if run.smoke { &[64, 128, 256] } else { &[64, 128, 256, 512, 1024] };
    // Sizes whose forward / backward / update op counts are not 1 / 1 /
    // one per update call: the O(1) headline, asserted.
    let mut off_counts: Vec<String> = Vec::new();
    let reps = 50u64;
    for &n in sizes {
        let spec = devices::ideal(4000);
        let mut tile = AnalogTile::new(n, n, &spec, TileConfig::ideal(), &mut rng);
        let target = Matrix::random_uniform(n, n + 1, -0.2, 0.2, &mut rng);
        tile.program_effective(&target);

        // Forward fidelity against the digital reference.
        let x: Vec<f32> = (0..n).map(|_| rng.range(-1.0, 1.0) as f32).collect();
        let (mut y, mut y_ref) = (vec![0.0f32; n], vec![0.0f32; n]);
        tile.forward_into(&x, &mut y);
        let mut xa = x.clone();
        xa.push(1.0);
        target.matvec_into(&xa, &mut y_ref);
        let max_err = y.iter().zip(&y_ref).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);

        // One backward, then repeated identical updates to measure the
        // realized mean step against the intended -lr*d*x.
        let d: Vec<f32> = (0..n).map(|_| rng.range(-1.0, 1.0) as f32).collect();
        tile.backward_into(&d, &mut vec![0.0f32; n]);
        let before = tile.weights();
        let lr = 0.001;
        for _ in 0..reps {
            tile.update(&d, &x, lr);
        }
        let after = tile.weights();
        // Compare realized vs intended change on a sample of entries.
        let mut err_num = 0.0f64;
        let mut err_den = 0.0f64;
        for i in (0..n).step_by(n / 16) {
            for j in (0..n).step_by(n / 16) {
                let realized = (after.at(i, j) - before.at(i, j)) as f64;
                let intended = -(lr as f64) * d[i] as f64 * x[j] as f64 * reps as f64;
                err_num += (realized - intended).powi(2);
                err_den += intended.powi(2);
            }
        }
        let rel_err = (err_num / err_den.max(1e-30)).sqrt();

        let s = tile.stats();
        if (s.forward_ops, s.backward_ops, s.update_ops) != (1, 1, reps) {
            let counts = format!("{}/{}/{}", s.forward_ops, s.backward_ops, s.update_ops);
            off_counts.push(format!("{n} x {n}: {counts} for 1/1/{reps}"));
        }
        let pulses_per_device = s.pulses as f64 / (n as f64 * (n + 1) as f64) / s.update_ops as f64;
        table.row_owned(vec![
            format!("{n} x {n}"),
            format!("{}", s.forward_ops),       // 1: single parallel op
            format!("{}", s.backward_ops),      // 1: transposed op
            format!("{}", s.update_ops / reps), // 1 per update call
            format!("{pulses_per_device:.2}"),
            format!("{max_err:.4}"),
            format!("{rel_err:.3}"),
        ]);
    }
    run.emit(&table);
    let detail = if off_counts.is_empty() {
        format!("fwd/bwd/upd ops 1/1/{reps} at all {} sizes", sizes.len())
    } else {
        off_counts.join("; ")
    };
    run.gate("one_crossbar_op_per_cycle_at_every_size", off_counts.is_empty(), detail);

    // Ablation: pulse-train length vs update fidelity. Longer trains
    // average out coincidence noise at linear cost in update latency.
    let mut ab = Table::new(&["BL (pulse train)", "update rel. error", "pulses/device/update"]);
    for &bl in &[1u32, 7, 31, 127] {
        let spec = devices::ideal(4000);
        let cfg = TileConfig {
            update: enw_core::crossbar::tile::UpdateScheme::StochasticPulse { bl },
            ..TileConfig::ideal()
        };
        let n = if run.smoke { 64 } else { 128 };
        let mut tile = AnalogTile::new(n, n, &spec, cfg, &mut rng);
        let x: Vec<f32> = (0..n).map(|_| rng.range(-1.0, 1.0) as f32).collect();
        let d: Vec<f32> = (0..n).map(|_| rng.range(-1.0, 1.0) as f32).collect();
        let before = tile.weights();
        let lr = 0.001;
        let reps = 50u64;
        for _ in 0..reps {
            tile.update(&d, &x, lr);
        }
        let after = tile.weights();
        let mut err_num = 0.0f64;
        let mut err_den = 0.0f64;
        for i in (0..n).step_by(8) {
            for j in (0..n).step_by(8) {
                let realized = (after.at(i, j) - before.at(i, j)) as f64;
                let intended = -(lr as f64) * d[i] as f64 * x[j] as f64 * reps as f64;
                err_num += (realized - intended).powi(2);
                err_den += intended.powi(2);
            }
        }
        let s = tile.stats();
        ab.row_owned(vec![
            format!("{bl}"),
            format!("{:.3}", (err_num / err_den.max(1e-30)).sqrt()),
            format!("{:.2}", s.pulses as f64 / (n as f64 * (n + 1) as f64) / s.update_ops as f64),
        ]);
    }
    println!("-- ablation: pulse-train length BL vs update fidelity --");
    run.emit(&ab);
    println!("Reading: fwd/bwd/upd crossbar-op counts stay at 1 per cycle at every size (O(1));");
    println!("pulses per device per update stay O(BL), independent of array dimensions; longer");
    println!("pulse trains trade update latency for lower stochastic-update error.");
}
