//! Property-based tests of the `Tunable` API contract: for every impl in
//! the workspace, decoded configurations re-encode to a fixed point of
//! the parameter space, and out-of-bounds points are always rejected
//! with a typed error.
//!
//! Compiled only with `--features proptest` so the default tier-1 run
//! stays lean; `scripts/verify.sh` runs it in its default pass.
#![cfg(feature = "proptest")]

use enw_core::cam::TcamConfig;
use enw_core::crossbar::tile::TileConfig;
use enw_core::numerics::rng::Rng64;
use enw_core::recsys::model::RecModelConfig;
use enw_core::serve::policy::BatchPolicy;
use enw_core::tunable::{AxisDomain, AxisValue, Tunable};
use enw_core::xmann::XmannConfig;
use proptest::prelude::*;

/// Round-trip contract on a sampled point `p`: when `decode(p)` accepts
/// (cross-field constraints may legitimately reject a sampled point),
/// the decoded config's encoding is in-bounds, decodes, and is a fixed
/// point — one decode/encode round collapses any lossy family (e.g.
/// multi-layer MLP shapes) and further rounds change nothing.
fn assert_roundtrip<T: Tunable>(what: &str, seed: u64) {
    let space = T::space();
    let mut rng = Rng64::new(seed);
    let p = space.sample(&mut rng);
    assert!(space.validate(&p).is_ok(), "{what}: sample left the space: {}", p.key());
    let Ok(c) = T::decode(&p) else {
        return;
    };
    let p2 = c.encode();
    assert!(space.validate(&p2).is_ok(), "{what}: encode left the space: {}", p2.key());
    let c2 =
        T::decode(&p2).unwrap_or_else(|e| panic!("{what}: re-decode of {} failed: {e}", p2.key()));
    assert_eq!(p2.key(), c2.encode().key(), "{what}: encode is not a fixed point");
}

/// Every axis pushed one step past its bound must fail both space
/// validation and decode, whatever the rest of the point holds.
fn assert_out_of_bounds_rejected<T: Tunable>(what: &str, seed: u64) {
    let space = T::space();
    let mut rng = Rng64::new(seed);
    let p = space.sample(&mut rng);
    for axis in space.axes() {
        let bad = match axis.domain {
            AxisDomain::Int { max, step, .. } => {
                p.with(axis.name, AxisValue::Int(max + step.max(1)))
            }
            AxisDomain::Real { max, .. } => p.with(axis.name, AxisValue::Real(max + 1.0)),
            AxisDomain::Choice { .. } => {
                p.with(axis.name, AxisValue::Choice("not-a-registered-option"))
            }
        };
        assert!(
            space.validate(&bad).is_err(),
            "{what}: axis {} accepted an out-of-bounds value",
            axis.name
        );
        assert!(
            T::decode(&bad).is_err(),
            "{what}: decode accepted out-of-bounds axis {}",
            axis.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// `decode(encode(c))` is the identity on every decoded config, for
    /// every `Tunable` impl in the workspace.
    #[test]
    fn every_tunable_roundtrips(seed in any::<u64>()) {
        assert_roundtrip::<TileConfig>("TileConfig", seed);
        assert_roundtrip::<XmannConfig>("XmannConfig", seed);
        assert_roundtrip::<TcamConfig>("TcamConfig", seed);
        assert_roundtrip::<RecModelConfig>("RecModelConfig", seed);
        assert_roundtrip::<BatchPolicy>("BatchPolicy", seed);
    }

    /// Out-of-bounds decode always errors — no axis silently clamps.
    #[test]
    fn out_of_bounds_decode_always_errors(seed in any::<u64>()) {
        assert_out_of_bounds_rejected::<TileConfig>("TileConfig", seed);
        assert_out_of_bounds_rejected::<XmannConfig>("XmannConfig", seed);
        assert_out_of_bounds_rejected::<TcamConfig>("TcamConfig", seed);
        assert_out_of_bounds_rejected::<RecModelConfig>("RecModelConfig", seed);
        assert_out_of_bounds_rejected::<BatchPolicy>("BatchPolicy", seed);
    }
}
