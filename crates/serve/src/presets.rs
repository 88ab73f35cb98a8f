//! The canonical four-lane "paper fleet" used by E16 (`enw run E16`)
//! and the end-to-end determinism tests.
//!
//! Station order is fixed and part of the reproducibility contract:
//!
//! | index | lane | policy | deadline budget |
//! |---|---|---|---|
//! | 0 | `crossbar` (analog, digital fallback) | 8-deep batches, 200 µs wait | 2 ms |
//! | 1 | `digital` | 16-deep batches, 100 µs wait | 1 ms |
//! | 2 | `tcam` | 4-deep batches, 50 µs wait | 500 µs |
//! | 3 | `recsys` | SLA-derived via `try_max_batch_under_sla` | 1 ms |
//!
//! All parameters are representative serving numbers, not tuned claims;
//! what the experiments measure is how *tails, shedding and degradation*
//! respond to load, which only needs the lanes to sit at believable
//! relative speeds (analog slowest, TCAM fastest).

use crate::backends::{
    ideal_layers, CrossbarBackend, DigitalBackend, RecsysBackend, TcamBackend, TcamGeometry,
};
use crate::loadgen::TrafficClass;
use crate::policy::{BatchPolicy, DegradePolicy, StationSpec};
use crate::scheduler::Server;
use enw_cam::array::TcamConfig;
use enw_cam::cells;
use enw_crossbar::devices::pcm::PcmConfig;
use enw_numerics::rng::Rng64;
use enw_recsys::characterize::RooflineMachine;
use enw_recsys::model::{Interaction, RecModelConfig};
use enw_recsys::serving::batch_latency;

/// MLP served by the crossbar and digital lanes.
const MLP_DIMS: [usize; 3] = [16, 32, 10];
/// PCM deployment age (seconds) at which the analog lane is read.
const T_READ_S: f64 = 1e6;
/// TCAM lane geometry.
const TCAM_DIM: usize = 16;
const TCAM_PLANES: usize = 64;
const TCAM_CLASSES: usize = 10;
const TCAM_SHOTS: usize = 4;
/// Recsys SLA as a multiple of the single-query latency (comfortably
/// reachable, so the binary search always yields a batch size).
const RECSYS_SLA_X: f64 = 50.0;
const RECSYS_BATCH_CAP: usize = 64;

/// A small DLRM-style configuration sized for simulation throughput.
pub fn recsys_config() -> RecModelConfig {
    RecModelConfig {
        dense_features: 8,
        bottom_mlp: vec![16, 16],
        tables: vec![(512, 4), (256, 2), (128, 2)],
        embedding_dim: 16,
        top_mlp: vec![16],
        interaction: Interaction::Concat,
    }
}

/// Builds the four-lane server; every parameter and random draw is a
/// pure function of `seed`.
///
/// # Errors
///
/// Propagates [`Server::try_new`]'s validation; with the preset spec
/// list this cannot fail, but the `Result` keeps the preset honest
/// instead of hiding a panic behind an "is statically valid" expect.
pub fn try_fleet(seed: u64) -> Result<Server, crate::ServeError> {
    let mut rng = Rng64::new(seed);

    // Lanes 0/1: the same ideal MLP weights served analog and digital.
    let ideal = ideal_layers(&MLP_DIMS, &mut rng);
    let analog = CrossbarBackend::program(
        "crossbar",
        &ideal,
        PcmConfig::projected(),
        T_READ_S,
        CrossbarBackend::DEFAULT_MODEL,
        &mut rng,
    );
    let analog_fallback = DigitalBackend::from_layers(
        "crossbar-fallback",
        ideal.clone(),
        DigitalBackend::DEFAULT_MODEL,
    );
    let digital = DigitalBackend::from_layers("digital", ideal, DigitalBackend::DEFAULT_MODEL);

    // Lane 2: TCAM few-shot memory holding a small support set.
    let support: Vec<(Vec<f32>, usize)> = (0..TCAM_CLASSES * TCAM_SHOTS)
        .map(|k| {
            let class = k % TCAM_CLASSES;
            let mut v: Vec<f32> = (0..TCAM_DIM).map(|_| rng.range(-0.2, 0.2) as f32).collect();
            v[class % TCAM_DIM] = 1.0;
            (v, class)
        })
        .collect();
    let tcam = TcamBackend::new(
        "tcam",
        TcamGeometry {
            capacity: 2 * TCAM_CLASSES * TCAM_SHOTS,
            dim: TCAM_DIM,
            planes: TCAM_PLANES,
        },
        cells::cmos_16t(),
        TcamConfig::default(),
        &support,
        &mut rng,
    );

    // Lane 3: recsys with the SLA-derived batch policy (paper Sec. V-B).
    let cfg = recsys_config();
    let machine = RooflineMachine::server_cpu();
    let sla = RECSYS_SLA_X * batch_latency(&cfg, 1, &machine);
    let recsys_policy =
        BatchPolicy::try_for_recsys_sla(&cfg, &machine, sla, RECSYS_BATCH_CAP, 512).unwrap_or(
            BatchPolicy { max_batch: RECSYS_BATCH_CAP, max_wait_ns: 100_000, queue_cap: 512 },
        );
    let recsys = RecsysBackend::new("recsys", &cfg, 1.0, machine, &mut rng);

    // `Server::try_new` validates every policy and ladder below; its
    // error propagates.
    let specs = vec![
        StationSpec::with_fallback(
            Box::new(analog),
            BatchPolicy { max_batch: 8, max_wait_ns: 200_000, queue_cap: 64 },
            Box::new(analog_fallback),
            DegradePolicy { miss_streak: 3, recover_streak: 8 },
        ),
        StationSpec::simple(
            Box::new(digital),
            BatchPolicy { max_batch: 16, max_wait_ns: 100_000, queue_cap: 128 },
        ),
        StationSpec::simple(
            Box::new(tcam),
            BatchPolicy { max_batch: 4, max_wait_ns: 50_000, queue_cap: 64 },
        ),
        StationSpec::simple(Box::new(recsys), recsys_policy),
    ];
    Ok(Server::try_new(specs)?)
}

/// The traffic mix matching [`try_fleet`]'s station order.
pub fn traffic_classes() -> Vec<TrafficClass> {
    vec![
        TrafficClass { station: 0, weight: 1.0, deadline_ns: 2_000_000 },
        TrafficClass { station: 1, weight: 2.0, deadline_ns: 1_000_000 },
        TrafficClass { station: 2, weight: 2.0, deadline_ns: 500_000 },
        TrafficClass { station: 3, weight: 3.0, deadline_ns: 1_000_000 },
    ]
}

/// Aggregate QPS at which the first lane saturates: the minimum over
/// lanes of `capacity / traffic share`. Feeding more than this must
/// produce queue growth, shedding or rejection somewhere.
pub fn saturation_qps(server: &Server, classes: &[TrafficClass]) -> f64 {
    let total: f64 = classes.iter().map(|c| c.weight).sum();
    let mut sat = f64::INFINITY;
    for c in classes {
        let share = c.weight / total;
        if share > 0.0 {
            sat = sat.min(server.capacity_qps(c.station) / share);
        }
    }
    sat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_has_four_lanes_in_paper_order() {
        let s = try_fleet(1).expect("preset fleet");
        assert_eq!(s.station_count(), 4);
        assert_eq!(s.station_name(0), "crossbar");
        assert_eq!(s.station_name(1), "digital");
        assert_eq!(s.station_name(2), "tcam");
        assert_eq!(s.station_name(3), "recsys");
    }

    #[test]
    fn recsys_policy_is_sla_derived() {
        let s = try_fleet(2).expect("preset fleet");
        let p = s.policy(3);
        let direct = enw_recsys::serving::try_max_batch_under_sla(
            &recsys_config(),
            &RooflineMachine::server_cpu(),
            RECSYS_SLA_X * batch_latency(&recsys_config(), 1, &RooflineMachine::server_cpu()),
            RECSYS_BATCH_CAP as u64,
        );
        assert_eq!(Ok(p.max_batch as u64), direct, "policy must come from the paper search");
    }

    #[test]
    fn saturation_is_finite_and_positive() {
        let s = try_fleet(3).expect("preset fleet");
        let classes = traffic_classes();
        let sat = saturation_qps(&s, &classes);
        assert!(sat.is_finite() && sat > 0.0, "saturation {sat}");
        // The analog lane (slowest per request, smallest share) should
        // not be orders of magnitude away from the others' knee.
        for c in &classes {
            assert!(s.capacity_qps(c.station) > 0.0);
        }
    }

    #[test]
    fn fleets_from_the_same_seed_are_interchangeable() {
        let a = try_fleet(9).expect("preset fleet");
        let b = try_fleet(9).expect("preset fleet");
        let mut ra = Rng64::new(1);
        let mut rb = Rng64::new(1);
        for i in 0..4 {
            assert_eq!(a.payload_for(i, &mut ra), b.payload_for(i, &mut rb));
            assert_eq!(a.capacity_qps(i).to_bits(), b.capacity_qps(i).to_bits());
        }
    }
}
