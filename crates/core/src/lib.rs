//! Umbrella crate for the *Emerging Neural Workloads and Their Impact on
//! Hardware* (DATE 2020) reproduction workspace.
//!
//! The paper surveys three workload/hardware pairings; each lives in its
//! own crate and is re-exported here:
//!
//! | Paper section | Workload | Hardware | Crates |
//! |---|---|---|---|
//! | Sec. II | CNN/MLP training & inference | analog resistive crossbars | [`crossbar`] over [`nn`] |
//! | Sec. III–IV | memory-augmented NNs (one/few-shot) | X-MANN crossbars, TCAMs | [`mann`], [`xmann`], [`cam`] |
//! | Sec. V | neural recommendation | memory-system co-design | [`recsys`] |
//! | Sec. V-B (serving) | all four, behind one SLA-bound runtime | micro-batched lanes | [`serve`] |
//! | Sec. V-B (deployment) | sharded multi-node serving | consistent-hash fleet | [`fleet`] over [`serve`] |
//!
//! Shared numerics live in [`numerics`]; the [`parallel`] runtime fans
//! simulation hot paths out across threads with bit-identical results
//! (see DESIGN.md, "Execution model"). The [`serve`] crate fronts every
//! workload with the deterministic micro-batching serving runtime
//! (DESIGN.md, "Serving runtime"); the [`fleet`] crate scales that
//! runtime out to a sharded, autoscaled multi-node cluster (DESIGN.md,
//! "Fleet architecture"). [`report`] renders the result tables of the
//! `enw` experiment runner (crate `enw-bench`), whose table maps each
//! reproduced table and figure (E1–E21) to the module that regenerates it.
//!
//! # Quickstart
//!
//! ```
//! use enw_core::cam::array::{TcamArray, TcamConfig};
//! use enw_core::cam::cells;
//! use enw_core::numerics::bits::BitVec;
//! use enw_core::report::{self, Table};
//!
//! // Two 4-bit words in a 16T CMOS TCAM; one search finds the nearest.
//! let mut cam = TcamArray::new(4, cells::cmos_16t(), TcamConfig::default());
//! cam.write(&BitVec::from_bools(&[true, true, true, true]));
//! cam.write(&BitVec::from_bools(&[false, false, false, false]));
//! let (hit, cost) = cam.search_nearest(&BitVec::from_bools(&[true, false, false, false]));
//! let hit = hit.expect("the array holds two words");
//! assert_eq!((hit.index, hit.distance), (1, 1));
//!
//! let mut table = Table::new(&["nearest word", "search energy"]);
//! table.row_owned(vec![hit.index.to_string(), report::energy(cost.energy_pj)]);
//! println!("{}", table.render());
//! ```

pub use enw_cam as cam;
pub use enw_crossbar as crossbar;
pub use enw_fleet as fleet;
pub use enw_mann as mann;
pub use enw_nn as nn;
pub use enw_numerics as numerics;
pub use enw_parallel as parallel;
pub use enw_recsys as recsys;
pub use enw_serve as serve;
pub use enw_trace as trace;
pub use enw_xmann as xmann;

pub mod report;
pub mod tunable;

pub use tunable::{AxisDomain, AxisSpec, AxisValue, ParamSpace, Point, Tunable, TunableError};
