//! The unified tunable-config API: typed parameter spaces over the
//! workspace's hardware/workload configuration structs.
//!
//! Every simulator crate exposes a configuration struct with a validating
//! builder; this module adds the *search-facing* view of those structs.
//! A [`Tunable`] type declares a [`ParamSpace`] — an ordered list of
//! named, bounded axes — and maps itself to and from a [`Point`] in that
//! space. The DSE engine (`enw-dse`) enumerates and locally searches
//! points without knowing anything about the concrete config type.
//!
//! # Conventions (see DESIGN.md, "Tunable configs")
//!
//! * Axis names are `snake_case` and match the struct field they tune
//!   (`tile_rows`, not `rows`); derived axes name the family parameter
//!   (`bottom_width` for a one-hidden-layer bottom MLP).
//! * [`Tunable::space`] declares axes in struct-field order; the order is
//!   part of the API — [`Tunable::encode`] emits entries in exactly that
//!   order, so [`Point::key`] is a stable identity for hashing, sorting
//!   and JSON output. Never build a point by iterating a hash-ordered
//!   container (`clippy.toml` bans the hash collections).
//! * [`Tunable::decode`] is *total on in-bounds points*: bounds are
//!   validated here, cross-field constraints by the crate's own builder,
//!   and both failure paths return typed errors through [`EnwError`].
//!   `step` is search granularity (grid spacing, neighbor stride), not a
//!   decode constraint — off-step in-bounds values decode fine.
//! * Lossy families are allowed: a config whose shape exceeds the family
//!   (say a three-layer bottom MLP) encodes to its nearest family member.
//!   The invariant property tests assert is `decode(encode(c)) == c` for
//!   every `c = decode(p)` — the family is closed under round-trip.

use crate::error::EnwError;
use enw_cam::array::TcamConfig;
use enw_crossbar::noise::AnalogNoise;
use enw_crossbar::tile::{TileConfig, UpdateScheme};
use enw_mann::embedding::EmbeddingConfig;
use enw_nn::mlp::SgdConfig;
use enw_numerics::rng::Rng64;
use enw_recsys::model::{Interaction, RecModelConfig};
use enw_serve::policy::BatchPolicy;
use enw_xmann::arch::XmannConfig;
use std::error::Error;
use std::fmt;

/// Tolerance for floating-point bounds checks: decoded values come back
/// through `f32` round-trips, so exact comparison would reject points the
/// encoder itself produced.
const REAL_EPS: f64 = 1e-9;

/// Relative slack for real-axis bounds checks: a config that stores an
/// axis as `f32` re-encodes the bound itself a few `f32` ULPs off (e.g.
/// `f64::from(0.2f32) > 0.2`), so bounds get `|bound| * F32_SLACK` of
/// headroom — orders of magnitude below any axis step.
const F32_SLACK: f64 = 1e-6;

/// The domain of one tunable axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisDomain {
    /// Integers `min..=max`; `step` is the grid/neighbor stride.
    Int {
        /// Inclusive lower bound.
        min: i64,
        /// Inclusive upper bound.
        max: i64,
        /// Search stride (≥ 1); not a decode constraint.
        step: i64,
    },
    /// Reals `min..=max`; `step` is the grid/neighbor stride.
    Real {
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
        /// Search stride (> 0); not a decode constraint.
        step: f64,
    },
    /// One of a fixed, ordered set of labels.
    Choice {
        /// The legal labels, in neighbor order.
        options: &'static [&'static str],
    },
}

/// One named axis of a [`ParamSpace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisSpec {
    /// Axis name (`snake_case`, matching the tuned field).
    pub name: &'static str,
    /// Value domain.
    pub domain: AxisDomain,
}

/// A concrete value on one axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// Value on an [`AxisDomain::Int`] axis.
    Int(i64),
    /// Value on an [`AxisDomain::Real`] axis.
    Real(f64),
    /// Value on an [`AxisDomain::Choice`] axis.
    Choice(&'static str),
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Int(v) => write!(f, "{v}"),
            AxisValue::Real(v) => write!(f, "{v}"),
            AxisValue::Choice(v) => write!(f, "{v}"),
        }
    }
}

/// A configuration as a point in its parameter space: ordered
/// `(axis, value)` entries in the space's axis-declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    entries: Vec<(&'static str, AxisValue)>,
}

impl Point {
    /// A point from explicit entries (normally produced by
    /// [`Tunable::encode`] or the [`ParamSpace`] generators, which emit
    /// entries in axis order).
    pub fn new(entries: Vec<(&'static str, AxisValue)>) -> Self {
        Point { entries }
    }

    /// The entries, in encode order.
    pub fn entries(&self) -> &[(&'static str, AxisValue)] {
        &self.entries
    }

    /// The value on `axis`, if present.
    pub fn get(&self, axis: &str) -> Option<AxisValue> {
        self.entries.iter().find(|(n, _)| *n == axis).map(|&(_, v)| v)
    }

    /// The integer value on `axis`.
    pub fn int(&self, axis: &'static str) -> Result<i64, TunableError> {
        match self.get(axis) {
            Some(AxisValue::Int(v)) => Ok(v),
            Some(_) => Err(TunableError::WrongKind { axis }),
            None => Err(TunableError::MissingAxis { axis }),
        }
    }

    /// The real value on `axis`.
    pub fn real(&self, axis: &'static str) -> Result<f64, TunableError> {
        match self.get(axis) {
            Some(AxisValue::Real(v)) => Ok(v),
            Some(_) => Err(TunableError::WrongKind { axis }),
            None => Err(TunableError::MissingAxis { axis }),
        }
    }

    /// The choice label on `axis`.
    pub fn choice(&self, axis: &'static str) -> Result<&'static str, TunableError> {
        match self.get(axis) {
            Some(AxisValue::Choice(v)) => Ok(v),
            Some(_) => Err(TunableError::WrongKind { axis }),
            None => Err(TunableError::MissingAxis { axis }),
        }
    }

    /// This point with the value on `axis` replaced.
    pub fn with(&self, axis: &'static str, value: AxisValue) -> Point {
        let mut entries = self.entries.clone();
        if let Some(e) = entries.iter_mut().find(|(n, _)| *n == axis) {
            e.1 = value;
        } else {
            entries.push((axis, value));
        }
        Point { entries }
    }

    /// A stable textual identity: `axis=value` pairs joined with `,` in
    /// encode order. Two equal points always render the same key, so it
    /// is safe to sort, dedup and emit to JSON.
    pub fn key(&self) -> String {
        let mut out = String::new();
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(name);
            out.push('=');
            out.push_str(&value.to_string());
        }
        out
    }
}

/// Why a point could not be interpreted in a parameter space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TunableError {
    /// The point has no value for a declared axis.
    MissingAxis {
        /// The absent axis.
        axis: &'static str,
    },
    /// The point has a value for an axis the space does not declare.
    UnknownAxis {
        /// The extraneous axis.
        axis: &'static str,
    },
    /// The value's kind does not match the axis domain.
    WrongKind {
        /// The mismatched axis.
        axis: &'static str,
    },
    /// The value lies outside the axis bounds.
    OutOfBounds {
        /// The violated axis.
        axis: &'static str,
    },
}

impl fmt::Display for TunableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TunableError::MissingAxis { axis } => write!(f, "missing axis {axis}"),
            TunableError::UnknownAxis { axis } => write!(f, "unknown axis {axis}"),
            TunableError::WrongKind { axis } => write!(f, "wrong value kind on axis {axis}"),
            TunableError::OutOfBounds { axis } => write!(f, "value out of bounds on axis {axis}"),
        }
    }
}

impl Error for TunableError {}

/// An ordered set of tunable axes.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    axes: Vec<AxisSpec>,
}

impl ParamSpace {
    /// A space from its axes, in declaration order.
    pub fn new(axes: Vec<AxisSpec>) -> Self {
        ParamSpace { axes }
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[AxisSpec] {
        &self.axes
    }

    /// Checks that `point` covers exactly this space's axes with
    /// in-bounds values of the right kind. Step alignment is *not*
    /// checked — see the module conventions.
    pub fn validate(&self, point: &Point) -> Result<(), TunableError> {
        for axis in &self.axes {
            let value =
                point.get(axis.name).ok_or(TunableError::MissingAxis { axis: axis.name })?;
            match (axis.domain, value) {
                (AxisDomain::Int { min, max, .. }, AxisValue::Int(v)) => {
                    if v < min || v > max {
                        return Err(TunableError::OutOfBounds { axis: axis.name });
                    }
                }
                (AxisDomain::Real { min, max, .. }, AxisValue::Real(v)) => {
                    let tol = |b: f64| REAL_EPS.max(b.abs() * F32_SLACK);
                    if !v.is_finite() || v < min - tol(min) || v > max + tol(max) {
                        return Err(TunableError::OutOfBounds { axis: axis.name });
                    }
                }
                (AxisDomain::Choice { options }, AxisValue::Choice(v)) => {
                    if !options.contains(&v) {
                        return Err(TunableError::OutOfBounds { axis: axis.name });
                    }
                }
                _ => return Err(TunableError::WrongKind { axis: axis.name }),
            }
        }
        for &(name, _) in point.entries() {
            if !self.axes.iter().any(|a| a.name == name) {
                return Err(TunableError::UnknownAxis { axis: name });
            }
        }
        Ok(())
    }

    /// Up to `levels` evenly spread on-step values per axis (all options
    /// for a choice axis), combined into the full Cartesian product in
    /// axis order — the first axis varies slowest. Deterministic.
    pub fn grid(&self, levels: usize) -> Vec<Point> {
        let levels = levels.max(2);
        let per_axis: Vec<Vec<AxisValue>> =
            self.axes.iter().map(|a| axis_levels(a.domain, levels)).collect();
        let mut points = vec![Vec::new()];
        for (axis, values) in self.axes.iter().zip(&per_axis) {
            let mut next = Vec::with_capacity(points.len() * values.len());
            for stem in &points {
                for &v in values {
                    let mut entries: Vec<(&'static str, AxisValue)> = stem.clone();
                    entries.push((axis.name, v));
                    next.push(entries);
                }
            }
            points = next;
        }
        points.into_iter().map(Point::new).collect()
    }

    /// Every point one step away from `point` along exactly one axis
    /// (clamped in-bounds; a choice axis moves to adjacent options). The
    /// order — axis by axis, decrement before increment — is part of the
    /// determinism contract.
    pub fn neighbors(&self, point: &Point) -> Vec<Point> {
        let mut out = Vec::new();
        for axis in &self.axes {
            let Some(current) = point.get(axis.name) else { continue };
            match (axis.domain, current) {
                (AxisDomain::Int { min, max, step }, AxisValue::Int(v)) => {
                    if v - step >= min {
                        out.push(point.with(axis.name, AxisValue::Int(v - step)));
                    }
                    if v + step <= max {
                        out.push(point.with(axis.name, AxisValue::Int(v + step)));
                    }
                }
                (AxisDomain::Real { min, max, step }, AxisValue::Real(v)) => {
                    if v - step >= min - REAL_EPS {
                        out.push(point.with(axis.name, AxisValue::Real((v - step).max(min))));
                    }
                    if v + step <= max + REAL_EPS {
                        out.push(point.with(axis.name, AxisValue::Real((v + step).min(max))));
                    }
                }
                (AxisDomain::Choice { options }, AxisValue::Choice(v)) => {
                    if let Some(i) = options.iter().position(|&o| o == v) {
                        if i > 0 {
                            out.push(point.with(axis.name, AxisValue::Choice(options[i - 1])));
                        }
                        if i + 1 < options.len() {
                            out.push(point.with(axis.name, AxisValue::Choice(options[i + 1])));
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// A uniformly drawn on-step point. Consumes one `rng` draw per axis,
    /// so trajectories are reproducible from the seed alone.
    pub fn sample(&self, rng: &mut Rng64) -> Point {
        let entries = self
            .axes
            .iter()
            .map(|axis| {
                let value = match axis.domain {
                    AxisDomain::Int { min, max, step } => {
                        let n = ((max - min) / step) as usize + 1;
                        AxisValue::Int((min + rng.below(n) as i64 * step).min(max))
                    }
                    AxisDomain::Real { min, max, step } => {
                        let n = ((max - min) / step + REAL_EPS).floor() as usize + 1;
                        AxisValue::Real((min + rng.below(n) as f64 * step).min(max))
                    }
                    AxisDomain::Choice { options } => {
                        AxisValue::Choice(options[rng.below(options.len())])
                    }
                };
                (axis.name, value)
            })
            .collect();
        Point::new(entries)
    }
}

/// Up to `levels` evenly spread on-step values of one axis.
fn axis_levels(domain: AxisDomain, levels: usize) -> Vec<AxisValue> {
    match domain {
        AxisDomain::Int { min, max, step } => {
            let total = ((max - min) / step) as usize + 1;
            let picks = level_indices(total, levels);
            picks.into_iter().map(|i| AxisValue::Int((min + i as i64 * step).min(max))).collect()
        }
        AxisDomain::Real { min, max, step } => {
            let total = ((max - min) / step + REAL_EPS).floor() as usize + 1;
            let picks = level_indices(total, levels);
            picks.into_iter().map(|i| AxisValue::Real((min + i as f64 * step).min(max))).collect()
        }
        AxisDomain::Choice { options } => options.iter().map(|&o| AxisValue::Choice(o)).collect(),
    }
}

/// `levels` indices evenly spread over `0..total`, deduplicated,
/// always including both endpoints when `total > 1`.
fn level_indices(total: usize, levels: usize) -> Vec<usize> {
    if total <= levels {
        return (0..total).collect();
    }
    let mut out = Vec::with_capacity(levels);
    for i in 0..levels {
        // Round-to-nearest spread over the step grid.
        let idx = (i * (total - 1) + (levels - 1) / 2) / (levels - 1);
        if out.last() != Some(&idx) {
            out.push(idx);
        }
    }
    out
}

/// A configuration type that exposes itself as a point in a typed,
/// bounded parameter space.
///
/// Implementations live here in `enw-core` (the only crate that sees
/// both the trait and every config struct); the structs themselves stay
/// dependency-free in their kernel crates.
pub trait Tunable: Sized {
    /// The parameter space, axes in struct-field order.
    fn space() -> ParamSpace;

    /// This configuration as a point (entries in axis order).
    fn encode(&self) -> Point;

    /// The configuration at `point`, validated first against
    /// [`space`](Tunable::space) bounds and then by the crate's own
    /// builder for cross-field constraints.
    fn decode(point: &Point) -> Result<Self, EnwError>;
}

// --- implementations -----------------------------------------------------

/// Update-scheme labels for the `update` choice axis of [`TileConfig`].
const UPDATE_OPTIONS: &[&str] = &["stochastic", "mean_field"];

/// Interaction labels for the `interaction` choice axis of
/// [`RecModelConfig`].
const INTERACTION_OPTIONS: &[&str] = &["concat", "dot_pairwise"];

impl Tunable for TileConfig {
    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            // Bit-width 0 encodes "no converter" (ideal periphery).
            AxisSpec { name: "dac_bits", domain: AxisDomain::Int { min: 0, max: 10, step: 1 } },
            AxisSpec { name: "adc_bits", domain: AxisDomain::Int { min: 0, max: 12, step: 1 } },
            AxisSpec {
                name: "read_noise",
                domain: AxisDomain::Real { min: 0.0, max: 0.2, step: 0.02 },
            },
            AxisSpec {
                name: "drop_connect",
                domain: AxisDomain::Real { min: 0.0, max: 0.9, step: 0.05 },
            },
            AxisSpec { name: "update", domain: AxisDomain::Choice { options: UPDATE_OPTIONS } },
            AxisSpec { name: "bl", domain: AxisDomain::Int { min: 1, max: 127, step: 10 } },
        ])
    }

    fn encode(&self) -> Point {
        let (update, bl) = match self.update {
            UpdateScheme::StochasticPulse { bl } => ("stochastic", i64::from(bl)),
            // MeanField has no pulse train; encode the canonical default
            // so the axis stays populated.
            UpdateScheme::MeanField => ("mean_field", 31),
        };
        Point::new(vec![
            ("dac_bits", AxisValue::Int(self.noise.dac_bits.map_or(0, i64::from))),
            ("adc_bits", AxisValue::Int(self.noise.adc_bits.map_or(0, i64::from))),
            ("read_noise", AxisValue::Real(f64::from(self.noise.read_noise))),
            ("drop_connect", AxisValue::Real(f64::from(self.drop_connect))),
            ("update", AxisValue::Choice(update)),
            ("bl", AxisValue::Int(bl)),
        ])
    }

    fn decode(point: &Point) -> Result<Self, EnwError> {
        Self::space().validate(point).map_err(EnwError::from)?;
        let dac_bits = point.int("dac_bits").map_err(EnwError::from)?;
        let adc_bits = point.int("adc_bits").map_err(EnwError::from)?;
        let standard = AnalogNoise::standard();
        let noise = AnalogNoise {
            dac_bits: (dac_bits > 0).then_some(dac_bits as u32),
            adc_bits: (adc_bits > 0).then_some(adc_bits as u32),
            read_noise: point.real("read_noise").map_err(EnwError::from)? as f32,
            // Not tunable axes: keep the standard periphery's values.
            output_bound: standard.output_bound,
            ir_drop: standard.ir_drop,
        };
        let update = match point.choice("update").map_err(EnwError::from)? {
            "mean_field" => UpdateScheme::MeanField,
            _ => UpdateScheme::StochasticPulse {
                bl: point.int("bl").map_err(EnwError::from)? as u32,
            },
        };
        let drop_connect = point.real("drop_connect").map_err(EnwError::from)? as f32;
        TileConfig::builder()
            .noise(noise)
            .update(update)
            .drop_connect(drop_connect)
            .build()
            .map_err(EnwError::from)
    }
}

impl Tunable for XmannConfig {
    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            AxisSpec {
                name: "tile_rows",
                domain: AxisDomain::Int { min: 32, max: 1024, step: 32 },
            },
            AxisSpec { name: "tile_cols", domain: AxisDomain::Int { min: 16, max: 128, step: 16 } },
            AxisSpec {
                name: "tiles_per_subarray",
                domain: AxisDomain::Int { min: 1, max: 16, step: 1 },
            },
            AxisSpec {
                name: "total_tiles",
                domain: AxisDomain::Int { min: 16, max: 1024, step: 16 },
            },
        ])
    }

    fn encode(&self) -> Point {
        Point::new(vec![
            ("tile_rows", AxisValue::Int(self.tile_rows as i64)),
            ("tile_cols", AxisValue::Int(self.tile_cols as i64)),
            ("tiles_per_subarray", AxisValue::Int(self.tiles_per_subarray as i64)),
            ("total_tiles", AxisValue::Int(self.total_tiles as i64)),
        ])
    }

    fn decode(point: &Point) -> Result<Self, EnwError> {
        Self::space().validate(point).map_err(EnwError::from)?;
        XmannConfig::builder()
            .tile_rows(point.int("tile_rows").map_err(EnwError::from)? as usize)
            .tile_cols(point.int("tile_cols").map_err(EnwError::from)? as usize)
            .tiles_per_subarray(point.int("tiles_per_subarray").map_err(EnwError::from)? as usize)
            .total_tiles(point.int("total_tiles").map_err(EnwError::from)? as usize)
            .build()
            .map_err(EnwError::from)
    }
}

impl Tunable for TcamConfig {
    fn space() -> ParamSpace {
        ParamSpace::new(vec![AxisSpec {
            name: "segments",
            domain: AxisDomain::Int { min: 1, max: 8, step: 1 },
        }])
    }

    fn encode(&self) -> Point {
        Point::new(vec![("segments", AxisValue::Int(self.segments as i64))])
    }

    fn decode(point: &Point) -> Result<Self, EnwError> {
        Self::space().validate(point).map_err(EnwError::from)?;
        TcamConfig::builder()
            .segments(point.int("segments").map_err(EnwError::from)? as usize)
            .build()
            .map_err(EnwError::from)
    }
}

impl Tunable for SgdConfig {
    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            AxisSpec { name: "epochs", domain: AxisDomain::Int { min: 1, max: 200, step: 1 } },
            AxisSpec {
                name: "learning_rate",
                domain: AxisDomain::Real { min: 0.005, max: 0.5, step: 0.005 },
            },
        ])
    }

    fn encode(&self) -> Point {
        Point::new(vec![
            ("epochs", AxisValue::Int(self.epochs as i64)),
            ("learning_rate", AxisValue::Real(f64::from(self.learning_rate))),
        ])
    }

    fn decode(point: &Point) -> Result<Self, EnwError> {
        Self::space().validate(point).map_err(EnwError::from)?;
        SgdConfig::builder()
            .epochs(point.int("epochs").map_err(EnwError::from)? as usize)
            .learning_rate(point.real("learning_rate").map_err(EnwError::from)? as f32)
            .build()
            .map_err(EnwError::from)
    }
}

impl Tunable for EmbeddingConfig {
    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            // One-hidden-layer family: multi-layer stacks encode their
            // first width (see module conventions on lossy families).
            AxisSpec {
                name: "hidden_width",
                domain: AxisDomain::Int { min: 16, max: 256, step: 16 },
            },
            AxisSpec { name: "embed_dim", domain: AxisDomain::Int { min: 8, max: 128, step: 8 } },
            AxisSpec {
                name: "background_classes",
                domain: AxisDomain::Int { min: 2, max: 50, step: 2 },
            },
            AxisSpec {
                name: "samples_per_class",
                domain: AxisDomain::Int { min: 1, max: 100, step: 5 },
            },
            AxisSpec { name: "epochs", domain: AxisDomain::Int { min: 1, max: 50, step: 1 } },
            AxisSpec {
                name: "learning_rate",
                domain: AxisDomain::Real { min: 0.005, max: 0.5, step: 0.005 },
            },
        ])
    }

    fn encode(&self) -> Point {
        Point::new(vec![
            ("hidden_width", AxisValue::Int(self.hidden.first().map_or(64, |&w| w as i64))),
            ("embed_dim", AxisValue::Int(self.embed_dim as i64)),
            ("background_classes", AxisValue::Int(self.background_classes as i64)),
            ("samples_per_class", AxisValue::Int(self.samples_per_class as i64)),
            ("epochs", AxisValue::Int(self.epochs as i64)),
            ("learning_rate", AxisValue::Real(f64::from(self.learning_rate))),
        ])
    }

    fn decode(point: &Point) -> Result<Self, EnwError> {
        Self::space().validate(point).map_err(EnwError::from)?;
        EmbeddingConfig::builder()
            .hidden(vec![point.int("hidden_width").map_err(EnwError::from)? as usize])
            .embed_dim(point.int("embed_dim").map_err(EnwError::from)? as usize)
            .background_classes(point.int("background_classes").map_err(EnwError::from)? as usize)
            .samples_per_class(point.int("samples_per_class").map_err(EnwError::from)? as usize)
            .epochs(point.int("epochs").map_err(EnwError::from)? as usize)
            .learning_rate(point.real("learning_rate").map_err(EnwError::from)? as f32)
            .build()
            .map_err(EnwError::from)
    }
}

impl Tunable for RecModelConfig {
    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            AxisSpec {
                name: "dense_features",
                domain: AxisDomain::Int { min: 16, max: 512, step: 16 },
            },
            // Uniform family: bottom MLP is [bottom_width, embedding_dim],
            // all tables share (rows, lookups), top MLP is [top_width].
            AxisSpec {
                name: "bottom_width",
                domain: AxisDomain::Int { min: 16, max: 1024, step: 16 },
            },
            AxisSpec {
                name: "embedding_dim",
                domain: AxisDomain::Int { min: 8, max: 128, step: 8 },
            },
            AxisSpec { name: "tables", domain: AxisDomain::Int { min: 1, max: 32, step: 1 } },
            AxisSpec {
                name: "rows",
                domain: AxisDomain::Int { min: 1024, max: 2_097_152, step: 1024 },
            },
            AxisSpec { name: "lookups", domain: AxisDomain::Int { min: 1, max: 64, step: 1 } },
            AxisSpec {
                name: "top_width",
                domain: AxisDomain::Int { min: 16, max: 1024, step: 16 },
            },
            AxisSpec {
                name: "interaction",
                domain: AxisDomain::Choice { options: INTERACTION_OPTIONS },
            },
        ])
    }

    fn encode(&self) -> Point {
        let (rows, lookups) = self.tables.first().map_or((1024, 1), |&(r, l)| (r, l));
        Point::new(vec![
            ("dense_features", AxisValue::Int(self.dense_features as i64)),
            ("bottom_width", AxisValue::Int(self.bottom_mlp.first().map_or(64, |&w| w as i64))),
            ("embedding_dim", AxisValue::Int(self.embedding_dim as i64)),
            ("tables", AxisValue::Int(self.tables.len() as i64)),
            ("rows", AxisValue::Int(rows as i64)),
            ("lookups", AxisValue::Int(lookups as i64)),
            ("top_width", AxisValue::Int(self.top_mlp.first().map_or(64, |&w| w as i64))),
            (
                "interaction",
                AxisValue::Choice(match self.interaction {
                    Interaction::Concat => "concat",
                    Interaction::DotPairwise => "dot_pairwise",
                }),
            ),
        ])
    }

    fn decode(point: &Point) -> Result<Self, EnwError> {
        Self::space().validate(point).map_err(EnwError::from)?;
        let embedding_dim = point.int("embedding_dim").map_err(EnwError::from)? as usize;
        let bottom_width = point.int("bottom_width").map_err(EnwError::from)? as usize;
        let tables = point.int("tables").map_err(EnwError::from)? as usize;
        let rows = point.int("rows").map_err(EnwError::from)? as usize;
        let lookups = point.int("lookups").map_err(EnwError::from)? as usize;
        let top_width = point.int("top_width").map_err(EnwError::from)? as usize;
        let interaction = match point.choice("interaction").map_err(EnwError::from)? {
            "dot_pairwise" => Interaction::DotPairwise,
            _ => Interaction::Concat,
        };
        RecModelConfig::builder(RecModelConfig::compute_bound())
            .dense_features(point.int("dense_features").map_err(EnwError::from)? as usize)
            .bottom_mlp(vec![bottom_width, embedding_dim])
            .embedding_dim(embedding_dim)
            .tables(vec![(rows, lookups); tables])
            .top_mlp(vec![top_width])
            .interaction(interaction)
            .build()
            .map_err(EnwError::from)
    }
}

impl Tunable for BatchPolicy {
    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            AxisSpec { name: "max_batch", domain: AxisDomain::Int { min: 1, max: 64, step: 1 } },
            AxisSpec {
                name: "max_wait_ns",
                domain: AxisDomain::Int { min: 0, max: 2_000_000, step: 25_000 },
            },
            AxisSpec { name: "queue_cap", domain: AxisDomain::Int { min: 1, max: 512, step: 16 } },
        ])
    }

    fn encode(&self) -> Point {
        Point::new(vec![
            ("max_batch", AxisValue::Int(self.max_batch as i64)),
            ("max_wait_ns", AxisValue::Int(self.max_wait_ns as i64)),
            ("queue_cap", AxisValue::Int(self.queue_cap as i64)),
        ])
    }

    fn decode(point: &Point) -> Result<Self, EnwError> {
        Self::space().validate(point).map_err(EnwError::from)?;
        BatchPolicy::builder()
            .max_batch(point.int("max_batch").map_err(EnwError::from)? as usize)
            .max_wait_ns(point.int("max_wait_ns").map_err(EnwError::from)? as u64)
            .queue_cap(point.int("queue_cap").map_err(EnwError::from)? as usize)
            .build()
            .map_err(EnwError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space3() -> ParamSpace {
        ParamSpace::new(vec![
            AxisSpec { name: "a", domain: AxisDomain::Int { min: 0, max: 10, step: 2 } },
            AxisSpec { name: "b", domain: AxisDomain::Real { min: 0.0, max: 1.0, step: 0.25 } },
            AxisSpec { name: "c", domain: AxisDomain::Choice { options: &["x", "y", "z"] } },
        ])
    }

    fn point3(a: i64, b: f64, c: &'static str) -> Point {
        Point::new(vec![
            ("a", AxisValue::Int(a)),
            ("b", AxisValue::Real(b)),
            ("c", AxisValue::Choice(c)),
        ])
    }

    #[test]
    fn validate_accepts_in_bounds_and_off_step() {
        assert_eq!(space3().validate(&point3(4, 0.5, "y")), Ok(()));
        // Off-step but in-bounds: fine by convention.
        assert_eq!(space3().validate(&point3(3, 0.33, "y")), Ok(()));
    }

    #[test]
    fn validate_rejects_each_failure_mode() {
        let s = space3();
        assert_eq!(s.validate(&point3(11, 0.5, "y")), Err(TunableError::OutOfBounds { axis: "a" }));
        assert_eq!(s.validate(&point3(4, 1.5, "y")), Err(TunableError::OutOfBounds { axis: "b" }));
        assert_eq!(s.validate(&point3(4, 0.5, "w")), Err(TunableError::OutOfBounds { axis: "c" }));
        let missing = Point::new(vec![("a", AxisValue::Int(4)), ("b", AxisValue::Real(0.5))]);
        assert_eq!(s.validate(&missing), Err(TunableError::MissingAxis { axis: "c" }));
        let unknown = point3(4, 0.5, "y").with("d", AxisValue::Int(1));
        assert_eq!(s.validate(&unknown), Err(TunableError::UnknownAxis { axis: "d" }));
        let wrong = Point::new(vec![
            ("a", AxisValue::Real(4.0)),
            ("b", AxisValue::Real(0.5)),
            ("c", AxisValue::Choice("y")),
        ]);
        assert_eq!(s.validate(&wrong), Err(TunableError::WrongKind { axis: "a" }));
    }

    #[test]
    fn grid_is_deterministic_and_valid() {
        let s = space3();
        let g1 = s.grid(3);
        let g2 = s.grid(3);
        assert_eq!(g1, g2);
        // 3 int levels × 3 real levels × 3 options.
        assert_eq!(g1.len(), 27);
        for p in &g1 {
            assert_eq!(s.validate(p), Ok(()), "{}", p.key());
        }
        // Endpoints are always included.
        assert!(g1.iter().any(|p| p.int("a").unwrap() == 0));
        assert!(g1.iter().any(|p| p.int("a").unwrap() == 10));
    }

    #[test]
    fn neighbors_stay_in_bounds_and_move_one_axis() {
        let s = space3();
        let p = point3(0, 0.5, "x");
        let ns = s.neighbors(&p);
        // a: only +2 (at min); b: ±0.25; c: only "y" (at first option).
        assert_eq!(ns.len(), 4);
        for n in &ns {
            assert_eq!(s.validate(n), Ok(()), "{}", n.key());
            let moved = n.entries().iter().zip(p.entries()).filter(|(x, y)| x != y).count();
            assert_eq!(moved, 1);
        }
    }

    #[test]
    fn sample_is_reproducible_from_the_seed() {
        let s = space3();
        let mut r1 = Rng64::new(7);
        let mut r2 = Rng64::new(7);
        for _ in 0..32 {
            let p = s.sample(&mut r1);
            assert_eq!(p, s.sample(&mut r2));
            assert_eq!(s.validate(&p), Ok(()), "{}", p.key());
        }
    }

    #[test]
    fn key_is_stable_and_ordered() {
        assert_eq!(point3(4, 0.5, "y").key(), "a=4,b=0.5,c=y");
    }

    #[test]
    fn default_configs_round_trip() {
        // decode(encode(c)) == c for every default (all on the family
        // manifold).
        let t = TileConfig::default();
        assert_eq!(TileConfig::decode(&t.encode()).unwrap(), t);
        let x = XmannConfig::default();
        assert_eq!(XmannConfig::decode(&x.encode()).unwrap(), x);
        let c = TcamConfig::default();
        assert_eq!(TcamConfig::decode(&c.encode()).unwrap(), c);
        let s = SgdConfig::default();
        assert_eq!(SgdConfig::decode(&s.encode()).unwrap(), s);
        let e = EmbeddingConfig::default();
        assert_eq!(EmbeddingConfig::decode(&e.encode()).unwrap(), e);
        let m = RecModelConfig::memory_bound();
        assert_eq!(RecModelConfig::decode(&m.encode()).unwrap(), m);
        let b = BatchPolicy::new(8, 200_000, 32);
        assert_eq!(BatchPolicy::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn decode_funnels_builder_errors() {
        // In-bounds per axis but cross-field invalid: queue_cap < max_batch.
        let p = Point::new(vec![
            ("max_batch", AxisValue::Int(64)),
            ("max_wait_ns", AxisValue::Int(0)),
            ("queue_cap", AxisValue::Int(1)),
        ]);
        assert!(matches!(BatchPolicy::decode(&p), Err(EnwError::Serve(_))));
    }

    #[test]
    fn decode_rejects_out_of_bounds_points() {
        let p = XmannConfig::default().encode().with("tile_rows", AxisValue::Int(4096));
        assert!(matches!(
            XmannConfig::decode(&p),
            Err(EnwError::Tunable(TunableError::OutOfBounds { axis: "tile_rows" }))
        ));
    }

    #[test]
    fn compute_bound_recsys_encodes_to_its_family_member() {
        // Lossy family: three-layer bottom MLP collapses to
        // [bottom_width, embedding_dim]; the re-decoded config is a fixed
        // point of decode ∘ encode.
        let c = RecModelConfig::compute_bound();
        let on_manifold = RecModelConfig::decode(&c.encode()).unwrap();
        assert_eq!(on_manifold.bottom_mlp, vec![512, 64]);
        assert_eq!(RecModelConfig::decode(&on_manifold.encode()).unwrap(), on_manifold);
    }
}
