//! One violation of each rule the workspace's clippy setup enforces,
//! one per line, each marked `// lint:` with the lint it must draw.
//! Nothing here is meant to run.

pub fn hash_map(_: &std::collections::HashMap<u32, f32>) {} // lint: disallowed_types
pub fn hash_set(_: &std::collections::HashSet<u32>) {} // lint: disallowed_types
pub fn entropy(_: &std::hash::RandomState) {} // lint: disallowed_types
pub fn monotonic_clock(_: std::time::Instant) {} // lint: disallowed_types
pub fn wall_clock(_: std::time::SystemTime) {} // lint: disallowed_types

pub fn raw_threads() {
    std::thread::spawn(|| {}); // lint: disallowed_methods
    std::thread::scope(|_| {}); // lint: disallowed_methods
    let _ = std::thread::Builder::new().spawn(|| {}); // lint: disallowed_methods
}

pub fn panics(x: Option<u32>, n: u32) -> u32 {
    let a = x.unwrap(); // lint: unwrap_used
    let b = x.expect("present"); // lint: expect_used
    match n {
        0 => panic!("zero"),   // lint: panic
        1 => todo!(),          // lint: todo
        2 => unimplemented!(), // lint: unimplemented
        3 => unreachable!(),   // lint: unreachable
        _ => a + b,
    }
}

#[expect(clippy::unwrap_used, reason = "matches nothing")] // lint: unfulfilled_lint_expectations
pub fn stale_waiver() {}
