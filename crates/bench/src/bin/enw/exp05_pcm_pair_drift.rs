//! E5 — PCM differential pairs: signed-weight tracking under
//! unidirectional updates, periodic reset, and resistance drift with and
//! without the projection liner (paper Sec. II-B1, refs. \[18\]\[26\]\[27\]).

use crate::run::Run;
use enw_core::crossbar::devices::pcm::{PcmConfig, PcmPair};
use enw_core::numerics::rng::Rng64;
use enw_core::report::{percent, Table};

pub fn run(run: &mut Run) {
    let mut rng = Rng64::new(5);

    // Part 1: track a slowly varying signed target with SET-only pulses.
    let mut pair = PcmPair::new(PcmConfig::bare());
    let mut table = Table::new(&["step", "target weight", "pair weight", "G+", "G-", "refreshes"]);
    let mut worst = 0.0f32;
    for step in 1..=400 {
        // The periodic simultaneous reset of [18]: every 25 updates both
        // members are melt-quenched and only the difference reprogrammed,
        // keeping each conductance in its high-gain (unsaturated) region.
        if step % 25 == 0 {
            pair.refresh(0.0);
        }
        let target = 0.6 * (step as f32 / 60.0).sin();
        // Closed-loop update: program toward the target from the *read*
        // weight, so saturation-shrunk steps are re-tried next update.
        pair.update(target - pair.weight(0.0), &mut rng);
        worst = worst.max((pair.weight(0.0) - target).abs());
        if step % 80 == 0 {
            let (gp, gm) = pair.conductances();
            table.row_owned(vec![
                format!("{step}"),
                format!("{target:+.3}"),
                format!("{:+.3}", pair.weight(0.0)),
                format!("{gp:.3}"),
                format!("{gm:.3}"),
                format!("{}", pair.refresh_count()),
            ]);
        }
    }
    println!("-- signed-weight tracking with unidirectional devices --");
    run.emit(&table);
    println!("worst tracking error over 400 signed updates: {worst:.3} (weight range ±1)\n");

    // Part 2: drift with and without the projection liner.
    let mut drift =
        Table::new(&["read time (a.u.)", "bare PCM retention", "projected PCM retention"]);
    let mut bare = PcmPair::new(PcmConfig { write_noise: 0.0, ..PcmConfig::bare() });
    let mut lined = PcmPair::new(PcmConfig { write_noise: 0.0, ..PcmConfig::projected() });
    bare.update(0.4, &mut rng);
    lined.update(0.4, &mut rng);
    let w0_bare = bare.weight(0.0);
    let w0_lined = lined.weight(0.0);
    for &t in &[1.0f64, 1e2, 1e4, 1e6, 1e8] {
        drift.row_owned(vec![
            format!("{t:.0e}"),
            percent((bare.weight(t) / w0_bare) as f64),
            percent((lined.weight(t) / w0_lined) as f64),
        ]);
    }
    println!("-- resistance drift: metallic projection liner vs bare cell --");
    run.emit(&drift);
    println!("Reading: the pair tracks signed weights despite SET-only switching (periodic reset");
    println!("preserving the difference), and the projection liner suppresses the conductance");
    println!("drift by about an order of magnitude in exponent, as in refs. [26][27].");
}
