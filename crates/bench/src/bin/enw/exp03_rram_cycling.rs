//! E3 — RRAM potentiation/depression cycling (paper Fig. 2, Sec. II-B2).
//!
//! Reproduces the figure's measurement protocol on the behavioural RRAM
//! model: three cycles of 1000 potentiation pulses followed by 1000
//! depression pulses, reading the device state (the read-current proxy)
//! along the way. The series shows the saturating nonlinearity, the
//! up/down asymmetry and the cycle-to-cycle stochasticity the paper
//! discusses.

use crate::run::Run;
use enw_core::crossbar::device::PulseDir;
use enw_core::crossbar::devices;
use enw_core::numerics::rng::Rng64;
use enw_core::numerics::stats::OnlineStats;
use enw_core::report::Table;

pub fn run(run: &mut Run) {
    let mut rng = Rng64::new(3);
    let dev = devices::rram().materialize(&mut rng);
    println!(
        "device: dw_up {:.4}, dw_down {:.4}, asymmetry {:.2}, symmetry point {:.3}\n",
        dev.dw_up,
        dev.dw_down,
        dev.asymmetry(),
        dev.symmetry_point()
    );

    let mut w = -1.0f32;
    let mut table = Table::new(&["cycle", "phase", "pulse #", "state (norm. read current)"]);
    let mut cycle_peaks = Vec::new();
    for cycle in 1..=3 {
        for (phase, dir) in [("potentiation", PulseDir::Up), ("depression", PulseDir::Down)] {
            for p in 1..=1000 {
                w = dev.pulse(w, dir, &mut rng);
                if p % 200 == 0 {
                    table.row_owned(vec![
                        format!("{cycle}"),
                        phase.to_string(),
                        format!("{p}"),
                        format!("{w:+.4}"),
                    ]);
                }
            }
            if dir == PulseDir::Up {
                cycle_peaks.push(w);
            }
        }
    }
    run.emit(&table);

    let peaks: OnlineStats = cycle_peaks.iter().map(|&p| p as f64).collect();
    println!(
        "peak state after each potentiation ramp: mean {:.3}, spread {:.4} (cycle-to-cycle noise)",
        peaks.mean(),
        peaks.max() - peaks.min()
    );
    println!("Reading: the ramps saturate (soft bounds), depression is weaker than potentiation");
    println!("(asymmetry), and repeated cycles do not retrace exactly (stochastic switching) —");
    println!("the three signatures of paper Fig. 2.");
}
