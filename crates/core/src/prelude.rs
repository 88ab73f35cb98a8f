//! One-line import surface for applications composing several workloads:
//!
//! ```
//! use enw_core::prelude::*;
//!
//! let mut rng = Rng64::new(7);
//! let policy = BatchPolicy { max_batch: 4, max_wait_ns: 0, queue_cap: 4 };
//! assert_eq!(policy.validate(), Ok(()));
//! let _ = rng.next_u64();
//! ```
//!
//! The prelude carries the names almost every consumer touches — the
//! backend traits, the deterministic RNG, the config structs, the typed
//! errors, and the observability handles — and nothing
//! workload-internal. Naming follows the workspace conventions in
//! DESIGN.md: `try_*` for fallible operations, a struct literal checked
//! by its `validate` for a config, `*Error` per crate plus [`EnwError`]
//! at the top.

pub use crate::error::EnwError;
pub use crate::registry::{find as find_experiment, registry as experiments, Experiment};
pub use crate::tunable::{
    AxisDomain, AxisSpec, AxisValue, ParamSpace, Point, Tunable, TunableError,
};

pub use enw_numerics::rng::Rng64;

pub use enw_nn::backend::{DigitalLinear, LinearBackend};
pub use enw_nn::error::NnError;
pub use enw_nn::mlp::{Mlp, SgdConfig};

pub use enw_crossbar::device::DeviceSpec;
pub use enw_crossbar::error::CrossbarError;
pub use enw_crossbar::tile::{AnalogTile, TileConfig};

pub use enw_cam::array::{TcamArray, TcamConfig};
pub use enw_cam::error::CamError;

pub use enw_xmann::arch::{Xmann, XmannConfig};
pub use enw_xmann::error::XmannError;

pub use enw_mann::embedding::EmbeddingConfig;
pub use enw_mann::error::MannError;
pub use enw_mann::memory::{DifferentiableMemory, Similarity};

pub use enw_recsys::error::RecsysError;
pub use enw_recsys::model::{RecModel, RecModelConfig};

pub use enw_serve::backend::Backend;
pub use enw_serve::error::ServeError;
pub use enw_serve::policy::{BatchPolicy, DegradePolicy, StationSpec};
pub use enw_serve::scheduler::Server;

pub use enw_trace::{
    counter_add, record_span, record_value, span, take_report, TraceMode, TraceReport,
};
