//! The five search lanes: one per tunable subsystem, each mapping a
//! [`Point`] to [`Objectives`] through the crate's own simulator.
//!
//! Every evaluator is a *probe*: a small, fixed, deterministic workload
//! driven through the real simulator (or its analytic cost model) so
//! that relative comparisons between candidates are faithful even where
//! absolute numbers are proxies. Infeasible points — decode failures,
//! cross-field violations, configurations the lane cannot build — return
//! `None` and cost the virtual clock one tick.

use crate::objective::Objectives;
use enw_core::cam::array::{TcamArray, TcamConfig};
use enw_core::cam::cells;
use enw_core::crossbar::tile::{TileConfig, UpdateScheme};
use enw_core::fleet::autoscale::AutoscalePolicy;
use enw_core::fleet::sim::{try_run, FleetSpec, LaneSpec};
use enw_core::fleet::traffic::{generate_fleet_trace, UserMix, UserSampler};
use enw_core::nn::mlp::SgdConfig;
use enw_core::numerics::bits::BitVec;
use enw_core::numerics::rng::Rng64;
use enw_core::recsys::characterize::{profile_batched, RooflineMachine};
use enw_core::recsys::model::RecModelConfig;
use enw_core::recsys::serving::batch_latency;
use enw_core::serve::{BatchPolicy, ServiceModel, ShapeKind, TrafficClass};
use enw_core::tunable::{ParamSpace, Point, Tunable};
use enw_core::xmann::arch::{Xmann, XmannConfig};
use enw_core::xmann::cost::XmannCostParams;

/// One searchable subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Analog crossbar tile periphery ([`TileConfig`]).
    Crossbar,
    /// X-MANN bank geometry ([`XmannConfig`]).
    Xmann,
    /// TCAM match-line segmentation ([`TcamConfig`]).
    Cam,
    /// Recommendation-model shape ([`RecModelConfig`]).
    Recsys,
    /// Serving-lane batching ([`BatchPolicy`]).
    Serve,
}

impl Lane {
    /// Every lane, in report order.
    pub fn all() -> [Lane; 5] {
        [Lane::Crossbar, Lane::Xmann, Lane::Cam, Lane::Recsys, Lane::Serve]
    }

    /// Stable name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Crossbar => "crossbar",
            Lane::Xmann => "xmann",
            Lane::Cam => "cam",
            Lane::Recsys => "recsys",
            Lane::Serve => "serve",
        }
    }

    /// The lane's parameter space (its config type's [`Tunable::space`]).
    pub fn space(self) -> ParamSpace {
        match self {
            Lane::Crossbar => TileConfig::space(),
            Lane::Xmann => XmannConfig::space(),
            Lane::Cam => TcamConfig::space(),
            Lane::Recsys => RecModelConfig::space(),
            Lane::Serve => BatchPolicy::space(),
        }
    }

    /// The hand-picked configuration the workspace ships today, encoded
    /// — the baseline every front is compared against.
    pub fn default_point(self) -> Point {
        match self {
            Lane::Crossbar => TileConfig::default().encode(),
            Lane::Xmann => XmannConfig::default().encode(),
            Lane::Cam => TcamConfig::default().encode(),
            Lane::Recsys => RecModelConfig::memory_bound().encode(),
            // The E19 fleet's mlp-lane policy (see enw-fleet presets).
            Lane::Serve => {
                BatchPolicy { max_batch: 8, max_wait_ns: 200_000, queue_cap: 32 }.encode()
            }
        }
    }

    /// Evaluates one point; `None` if the point is infeasible.
    pub fn evaluate(self, point: &Point) -> Option<Objectives> {
        match self {
            Lane::Crossbar => eval_crossbar(point),
            Lane::Xmann => eval_xmann(point),
            Lane::Cam => eval_cam(point),
            Lane::Recsys => eval_recsys(point),
            Lane::Serve => eval_serve(point),
        }
    }
}

/// The SGD schedule the crossbar probe assumes when charging update
/// energy (one epoch of rank-1 updates per probe); also keeps the
/// training-side tunable in the lane's vocabulary.
fn probe_sgd() -> SgdConfig {
    SgdConfig::default()
}

// --- crossbar ------------------------------------------------------------

/// Probe array shape: outputs × inputs.
const XB_OUT: usize = 16;
const XB_IN: usize = 8;
/// Probe forward passes.
const XB_PROBES: usize = 8;

/// Analog-periphery lane: functional forward error against the digital
/// reference under the candidate converter/noise stack, analytic
/// energy/latency/area for the periphery.
///
/// A tile with no converter on either side (`dac_bits == 0` or
/// `adc_bits == 0`) is not buildable hardware — the "ideal" setting
/// exists for simulation baselines only — so those points are
/// infeasible here.
fn eval_crossbar(point: &Point) -> Option<Objectives> {
    let cfg = TileConfig::decode(point).ok()?;
    let (dac_bits, adc_bits) = match (cfg.noise.dac_bits, cfg.noise.adc_bits) {
        (Some(d), Some(a)) => (d, a),
        _ => return None,
    };

    // Functional probe: fixed weights, fixed inputs, the candidate's
    // quantization/noise stack between them.
    let mut wrng = Rng64::new(42);
    let w: Vec<f32> = (0..XB_OUT * XB_IN).map(|_| wrng.uniform_f32() * 2.0 - 1.0).collect();
    let mut nrng = Rng64::new(7);
    let mut err_sq = 0.0f64;
    let mut ref_sq = 0.0f64;
    for p in 0..XB_PROBES {
        let mut x: Vec<f32> =
            (0..XB_IN).map(|i| (((p * XB_IN + i) % 7) as f32 - 3.0) / 3.0).collect();
        let clean = matvec(&w, &x);
        cfg.noise.apply_input(&mut x);
        let mut noisy = matvec(&w, &x);
        cfg.noise.apply_output(&mut noisy, &mut nrng);
        for (c, n) in clean.iter().zip(&noisy) {
            err_sq += f64::from((c - n) * (c - n));
            ref_sq += f64::from(c * c);
        }
    }
    let nrmse = (err_sq / ref_sq.max(f64::EPSILON)).sqrt();
    // Stochastic-pulse updates add O(1/√BL) gradient noise on top of the
    // read path; drop-connect suppresses that fraction of coincidences.
    let update_fidelity = match cfg.update {
        UpdateScheme::StochasticPulse { bl } => {
            (1.0 - 0.25 / f64::from(bl).sqrt()) * (1.0 - 0.3 * f64::from(cfg.drop_connect))
        }
        UpdateScheme::MeanField => 1.0 - 0.3 * f64::from(cfg.drop_connect),
    };
    let accuracy = update_fidelity / (1.0 + 4.0 * nrmse);

    // Analytic periphery: converter energy doubles per bit, the array
    // itself is fixed. Update energy scales with the pulse-train length,
    // discounted by suppressed coincidences.
    let cells = (XB_OUT * XB_IN) as f64;
    let e_forward = cells * 0.01
        + XB_IN as f64 * 0.02 * f64::from(1u32 << dac_bits)
        + XB_OUT as f64 * 0.05 * f64::from(1u32 << adc_bits);
    let epochs = probe_sgd().epochs as f64;
    let e_update = match cfg.update {
        UpdateScheme::StochasticPulse { bl } => {
            cells * 0.001 * f64::from(bl) * (1.0 - f64::from(cfg.drop_connect)) * epochs
        }
        UpdateScheme::MeanField => cells * 0.01 * epochs,
    };
    let adc_lanes = 16.0;
    let latency = 100.0 + (XB_OUT as f64 / adc_lanes).ceil() * (1.0 + 0.5 * f64::from(adc_bits));
    let area = 1.0 + 0.003 * f64::from(1u32 << adc_bits) + 0.001 * f64::from(1u32 << dac_bits);
    Some(Objectives {
        latency_ns: latency,
        energy_pj: e_forward + e_update,
        quality_per_area: accuracy / area,
    })
}

/// Row-major `XB_OUT × XB_IN` mat-vec.
fn matvec(w: &[f32], x: &[f32]) -> Vec<f32> {
    (0..XB_OUT).map(|o| (0..XB_IN).map(|i| w[o * XB_IN + i] * x[i]).sum()).collect()
}

// --- xmann ---------------------------------------------------------------

/// Probe memory: slots × feature dim.
const XM_SLOTS: usize = 4096;
const XM_DIM: usize = 64;

/// X-MANN lane: one similarity pass over a 4096×64 memory on the
/// candidate tile hierarchy. The operation is exact (quality 1), so the
/// quality-per-area axis is purely inverse device count — over-provisioned
/// geometries lose there and nowhere else.
fn eval_xmann(point: &Point) -> Option<Objectives> {
    let cfg = XmannConfig::decode(point).ok()?;
    let mut x = Xmann::new(XM_SLOTS, XM_DIM, cfg, XmannCostParams::default());
    let q: Vec<f32> = (0..XM_DIM).map(|i| ((i % 13) as f32 - 6.0) / 6.0).collect();
    let cost = x.similarity_into(&q, &mut vec![0.0f32; XM_SLOTS]);
    let area = (cfg.total_tiles * cfg.tile_rows * cfg.tile_cols) as f64;
    Some(Objectives {
        latency_ns: cost.latency_ns,
        energy_pj: cost.energy_pj,
        quality_per_area: 1.0e6 / area,
    })
}

// --- cam -----------------------------------------------------------------

/// Probe array: word width × stored words.
const CAM_WIDTH: usize = 128;
const CAM_WORDS: usize = 1024;

/// TCAM lane: one nearest-Hamming search over a full array in the
/// candidate segmentation. Selective precharge trades energy (fewer
/// precharged segments) against latency (sequential segment
/// evaluation); the search itself stays exact.
fn eval_cam(point: &Point) -> Option<Objectives> {
    let cfg = TcamConfig::decode(point).ok()?;
    let mut cam = TcamArray::new(CAM_WIDTH, cells::cmos_16t(), cfg);
    for wi in 0..CAM_WORDS {
        let bools: Vec<bool> = (0..CAM_WIDTH).map(|b| (wi * 31 + b * 7) % 3 == 0).collect();
        cam.write(&BitVec::from_bools(&bools));
    }
    let query: Vec<bool> = (0..CAM_WIDTH).map(|b| b % 2 == 0).collect();
    let (_, cost) = cam.search_nearest(&BitVec::from_bools(&query));
    let tech = cells::cmos_16t();
    let area_um2 = tech.cell_area_um2 * (CAM_WIDTH * CAM_WORDS) as f64;
    Some(Objectives {
        latency_ns: cost.latency_ns,
        energy_pj: cost.energy_pj,
        quality_per_area: 1.0e6 / area_um2,
    })
}

// --- recsys --------------------------------------------------------------

/// Queries per probe batch.
const REC_BATCH: u64 = 32;
/// Energy per FLOP, pJ (server-class core).
const REC_PJ_PER_FLOP: f64 = 0.5;
/// Energy per DRAM byte, pJ.
const REC_PJ_PER_BYTE: f64 = 10.0;

/// Recommendation lane: roofline latency and flop/byte energy of one
/// batch, against a log-capacity proxy for model expressiveness per
/// parameter byte.
fn eval_recsys(point: &Point) -> Option<Objectives> {
    let cfg = RecModelConfig::decode(point).ok()?;
    let machine = RooflineMachine::server_cpu();
    let latency_ns = batch_latency(&cfg, REC_BATCH, &machine) * 1e9;
    let profile = profile_batched(&cfg, REC_BATCH);
    let total = profile.total();
    let energy_pj = total.flops as f64 * REC_PJ_PER_FLOP + total.bytes as f64 * REC_PJ_PER_BYTE;
    // Capacity proxy: each table contributes lookups·ln(1+rows)·√dim —
    // diminishing returns in catalogue size, linear in pooling degree.
    let dim = cfg.embedding_dim as f64;
    let quality: f64 = cfg
        .tables
        .iter()
        .map(|&(rows, lookups)| lookups as f64 * (1.0 + rows as f64).ln() * dim.sqrt())
        .sum();
    let table_bytes: f64 =
        cfg.tables.iter().map(|&(rows, _)| (rows * cfg.embedding_dim * 4) as f64).sum();
    let mlp_bytes = (mlp_params(cfg.dense_features, &cfg.bottom_mlp)
        + mlp_params(cfg.embedding_dim, &cfg.top_mlp)) as f64
        * 4.0;
    let area_mb = (table_bytes + mlp_bytes) / 1.0e6;
    Some(Objectives { latency_ns, energy_pj, quality_per_area: quality / area_mb })
}

/// Dense parameter count of an MLP stack starting at `input` wide.
fn mlp_params(input: usize, widths: &[usize]) -> usize {
    let mut prev = input;
    let mut n = 0;
    for &w in widths {
        n += prev * w + w;
        prev = w;
    }
    n
}

// --- serve ---------------------------------------------------------------

/// Probe horizon, virtual ns.
const SRV_HORIZON_NS: u64 = 5_000_000;
/// Offered load, requests per second.
const SRV_QPS: f64 = 60_000.0;
/// Per-request deadline, ns.
const SRV_DEADLINE_NS: u64 = 4_000_000;

/// Serving lane: the candidate batch policy on a fixed two-replica lane
/// under the E19 mlp-lane service model and a Poisson probe trace, run
/// through the real fleet simulator. Latency is the lane p99; energy is
/// the replicas' busy time (batch setup amortization is what the policy
/// controls); quality is goodput over the queue-buffer area.
fn eval_serve(point: &Point) -> Option<Objectives> {
    let policy = BatchPolicy::decode(point).ok()?;
    let queue_cap = policy.queue_cap;
    let service = ServiceModel { setup_ns: 40_000, per_item_ns: 15_000 };
    let spec = FleetSpec {
        lanes: vec![LaneSpec {
            name: "probe".to_string(),
            service,
            policy,
            autoscale: AutoscalePolicy {
                min_replicas: 2,
                max_replicas: 2,
                epoch_ns: 2_000_000,
                p99_slo_ns: 2_000_000,
                up_queue_frac: 0.5,
                down_queue_frac: 0.1,
                calm_epochs_to_downscale: 3,
                cooldown_epochs: 1,
            },
            initial_replicas: 2,
            vnodes: 64,
            fanout_ns: 0,
            miss_ns: 0,
            sharded: false,
        }],
        store: None,
        seed: 19,
    };
    let trace = generate_fleet_trace(
        &ShapeKind::Poisson { qps: SRV_QPS },
        SRV_HORIZON_NS,
        7,
        &[TrafficClass { station: 0, weight: 1.0, deadline_ns: SRV_DEADLINE_NS }],
        &UserSampler::new(UserMix::Uniform { users: 4096 }),
    );
    let report = try_run(spec, &trace).ok()?;
    let lane = report.lanes.first()?;
    let m = &lane.metrics;
    if m.arrived == 0 {
        return None;
    }
    let served = m.completed + m.deadline_misses;
    if served == 0 {
        return None;
    }
    let busy_ns = m.batches * service.setup_ns + served * service.per_item_ns;
    let goodput = m.completed as f64 / m.arrived as f64;
    Some(Objectives {
        latency_ns: m.summary().p99_ns as f64,
        energy_pj: busy_ns as f64,
        quality_per_area: goodput / queue_cap as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lane_evaluates_its_default() {
        for lane in Lane::all() {
            let o = lane
                .evaluate(&lane.default_point())
                .unwrap_or_else(|| panic!("{} default infeasible", lane.name()));
            assert!(o.latency_ns > 0.0, "{}", lane.name());
            assert!(o.energy_pj > 0.0, "{}", lane.name());
            assert!(o.quality_per_area > 0.0, "{}", lane.name());
        }
    }

    #[test]
    fn lane_evaluators_are_pure() {
        for lane in Lane::all() {
            let p = lane.default_point();
            assert_eq!(lane.evaluate(&p), lane.evaluate(&p), "{}", lane.name());
        }
    }

    #[test]
    fn crossbar_rejects_converterless_points() {
        use enw_core::tunable::AxisValue;
        let p = Lane::Crossbar.default_point().with("adc_bits", AxisValue::Int(0));
        assert_eq!(Lane::Crossbar.evaluate(&p), None);
    }

    #[test]
    fn cam_segments_trade_energy_for_latency() {
        use enw_core::tunable::AxisValue;
        let base = Lane::Cam.default_point();
        let o1 = Lane::Cam.evaluate(&base).expect("segments=1");
        let o4 = Lane::Cam.evaluate(&base.with("segments", AxisValue::Int(4))).expect("segments=4");
        assert!(o4.energy_pj < o1.energy_pj);
        assert!(o4.latency_ns > o1.latency_ns);
    }

    #[test]
    fn xmann_right_sized_chip_dominates_on_area() {
        use enw_core::tunable::AxisValue;
        let default = Lane::Xmann.default_point();
        let trimmed = default.with("total_tiles", AxisValue::Int(16));
        let od = Lane::Xmann.evaluate(&default).expect("default");
        let ot = Lane::Xmann.evaluate(&trimmed).expect("trimmed");
        assert!(ot.dominates(&od), "16-tile chip should dominate the 256-tile default");
    }
}
