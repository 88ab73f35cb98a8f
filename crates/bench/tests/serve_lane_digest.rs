//! One digest over everything the four serving lanes answer, so a bit
//! that moves in a lane kernel fails tier-1 in milliseconds instead of
//! waiting for `verify.sh --full` to replay `serve_node` against its
//! pin: the preset server at seed 11 over `enw_perf`'s smoke-size traces
//! (4 ms at 0.9 × and 2 ms at 2.5 × `saturation_qps`, same seeds), FNV-1a
//! over each run's `RunReport::render()` then its `duration_ns` — the
//! benchmark's own construction at its full size.

use enw_core::serve::presets::{saturation_qps, traffic_classes, try_fleet};
use enw_core::serve::{generate_trace, LoadSpec};

const SEED: u64 = 11;

/// Recorded at d070412, the commit before the lanes moved onto packed
/// weights. A faster kernel must reproduce it; a PR that changes what a
/// lane answers on purpose re-records it and says so in CHANGES.md.
const PINNED: u64 = 0xf336_f8bb_1091_b63e;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn preset_server_answers_are_pinned_at_smoke_size() {
    let classes = traffic_classes();
    let sat = saturation_qps(&try_fleet(SEED).expect("the preset server is valid"), &classes);
    let specs = [
        LoadSpec { qps: 0.9 * sat, duration_ns: 4_000_000, seed: SEED },
        LoadSpec { qps: 2.5 * sat, duration_ns: 2_000_000, seed: SEED ^ 0x9e37_79b9 },
    ];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for spec in specs {
        let server = try_fleet(SEED).expect("the preset server is valid");
        let trace = generate_trace(&server, &spec, &classes);
        let report = server.try_run(&trace).expect("a generated trace is valid");
        digest = fnv1a(digest, report.render().as_bytes());
        digest = fnv1a(digest, &report.duration_ns.to_le_bytes());
        let served: Vec<u64> =
            report.stations.iter().map(|s| s.completed + s.deadline_misses).collect();
        assert!(served.iter().all(|&n| n > 50), "every lane's kernel must run: {served:?}");
    }
    assert_eq!(digest, PINNED, "serve-lane digest {digest:#018x}");
}
