//! Golden-fixture tests: one small source snippet per rule, asserting the
//! exact rule id and line, plus clean negatives proving the rules do not
//! fire on comments, doc examples, test modules, or allowed crates.

use enw_analyze::arch::check_manifest;
use enw_analyze::config::{apply_allowlist, parse_allowlist};
use enw_analyze::report::{Analysis, Severity};
use enw_analyze::scan_source;

/// Rule/line pairs from a scan, for compact assertions.
fn hits(path: &str, src: &str) -> Vec<(String, u32)> {
    scan_source(path, src).into_iter().map(|f| (f.rule.to_string(), f.line)).collect()
}

#[test]
fn d001_hashmap_in_kernel_crate() {
    let src = "use std::collections::HashMap;\n\nfn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n";
    let got = hits("crates/numerics/src/foo.rs", src);
    assert_eq!(
        got,
        vec![("ENW-D001".to_string(), 1), ("ENW-D001".to_string(), 4), ("ENW-D001".to_string(), 4)]
    );
}

#[test]
fn d001_hashset_in_recsys() {
    let got = hits("crates/recsys/src/foo.rs", "use std::collections::HashSet;\n");
    assert_eq!(got, vec![("ENW-D001".to_string(), 1)]);
}

#[test]
fn d001_silent_in_non_kernel_crate() {
    assert!(hits("crates/core/src/foo.rs", "use std::collections::HashMap;\n").is_empty());
    assert!(hits("crates/nn/src/foo.rs", "use std::collections::HashMap;\n").is_empty());
}

#[test]
fn d001_silent_in_kernel_test_module() {
    let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
    assert!(hits("crates/numerics/src/foo.rs", src).is_empty());
}

#[test]
fn d002_instant_outside_bench() {
    let src = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }\n";
    let got = hits("crates/crossbar/src/foo.rs", src);
    assert_eq!(got, vec![("ENW-D002".to_string(), 1), ("ENW-D002".to_string(), 2)]);
}

#[test]
fn d002_system_time_is_also_denied() {
    let got = hits("crates/core/src/foo.rs", "fn f() -> std::time::SystemTime { todo() }\n");
    assert_eq!(got, vec![("ENW-D002".to_string(), 1)]);
}

#[test]
fn d002_silent_in_bench_and_parallel() {
    let src = "use std::time::Instant;\n";
    assert!(hits("crates/bench/src/foo.rs", src).is_empty());
    assert!(hits("crates/parallel/src/foo.rs", src).is_empty());
}

#[test]
fn d003_ambient_entropy() {
    let src = "fn f() { let mut r = thread_rng(); }\n";
    assert_eq!(hits("crates/mann/src/foo.rs", src), vec![("ENW-D003".to_string(), 1)]);
    let src = "use std::collections::hash_map::RandomState;\n";
    assert_eq!(hits("crates/core/src/foo.rs", src), vec![("ENW-D003".to_string(), 1)]);
}

#[test]
fn d004_thread_spawn_outside_parallel() {
    let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
    assert_eq!(hits("crates/recsys/src/foo.rs", src), vec![("ENW-D004".to_string(), 2)]);
    assert!(hits("crates/parallel/src/foo.rs", src).is_empty());
}

#[test]
fn p005_thread_scope_outside_parallel() {
    let src = "fn f() {\n    std::thread::scope(|s| { let _ = s; });\n}\n";
    assert_eq!(hits("crates/numerics/src/foo.rs", src), vec![("ENW-P005".to_string(), 2)]);
    let bare = "use std::thread;\nfn f() {\n    thread::scope(|s| { let _ = s; });\n}\n";
    assert_eq!(hits("crates/cam/src/foo.rs", bare), vec![("ENW-P005".to_string(), 3)]);
}

#[test]
fn p005_silent_in_parallel_and_test_code() {
    let src = "fn f() {\n    std::thread::scope(|s| { let _ = s; });\n}\n";
    assert!(hits("crates/parallel/src/foo.rs", src).is_empty());
    let test_src =
        "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::scope(|s| { let _ = s; }); }\n}\n";
    assert!(hits("crates/serve/src/foo.rs", test_src).is_empty());
}

#[test]
fn p001_unwrap_in_lib_code() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(hits("crates/cam/src/foo.rs", src), vec![("ENW-P001".to_string(), 2)]);
}

#[test]
fn p001_unwrap_or_is_fine() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0).max(x.unwrap_or_default())\n}\n";
    assert!(hits("crates/cam/src/foo.rs", src).is_empty());
}

#[test]
fn p002_expect_in_lib_code() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"present\")\n}\n";
    assert_eq!(hits("crates/xmann/src/foo.rs", src), vec![("ENW-P002".to_string(), 2)]);
}

#[test]
fn p003_panic_macros() {
    let src = "fn f(n: u32) {\n    panic!(\"boom\");\n    todo!();\n    unimplemented!();\n    unreachable!();\n}\n";
    let got = hits("crates/nn/src/foo.rs", src);
    assert_eq!(
        got,
        vec![
            ("ENW-P003".to_string(), 2),
            ("ENW-P003".to_string(), 3),
            ("ENW-P003".to_string(), 4),
            ("ENW-P003".to_string(), 5),
        ]
    );
}

#[test]
fn p003_assert_is_not_flagged() {
    let src = "fn f(n: usize) {\n    assert!(n > 0, \"n must be positive\");\n    assert_eq!(n % 2, 0);\n}\n";
    assert!(hits("crates/nn/src/foo.rs", src).is_empty());
}

#[test]
fn p004_literal_indexing_is_warn_severity() {
    let src = "fn f(xs: &[u32]) -> u32 {\n    xs[0]\n}\n";
    let findings = scan_source("crates/numerics/src/foo.rs", src);
    assert_eq!(findings.len(), 1);
    let f = findings.first().expect("one finding");
    assert_eq!(f.rule, "ENW-P004");
    assert_eq!(f.line, 2);
    assert_eq!(f.severity, Severity::Warn);
}

#[test]
fn p004_variable_indexing_and_array_types_are_fine() {
    let src = "fn f(xs: &[u32], i: usize) -> u32 {\n    let a: [u32; 4] = [0, 1, 2, 3];\n    xs[i] + a[i]\n}\n";
    assert!(hits("crates/numerics/src/foo.rs", src).is_empty());
}

#[test]
fn panic_rules_skip_tests_bins_and_examples() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(hits("crates/cam/tests/foo.rs", src).is_empty());
    assert!(hits("crates/cam/benches/foo.rs", src).is_empty());
    assert!(hits("crates/bench/src/bin/exp99.rs", src).is_empty());
    assert!(hits("examples/demo.rs", src).is_empty());
    assert!(hits("tests/integration.rs", src).is_empty());
    // …but determinism rules still apply outside test targets of kernel
    // crates' lib code.
    assert!(!hits("crates/cam/src/foo.rs", src).is_empty());
}

#[test]
fn test_function_bodies_are_exempt() {
    let src = "fn lib_fn(x: Option<u32>) -> u32 {\n    x.unwrap_or(1)\n}\n\n#[test]\nfn check() {\n    let v: Option<u32> = None;\n    v.unwrap();\n}\n";
    assert!(hits("crates/mann/src/foo.rs", src).is_empty());
}

#[test]
fn cfg_not_test_is_not_exempt() {
    let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(hits("crates/mann/src/foo.rs", src), vec![("ENW-P001".to_string(), 3)]);
}

#[test]
fn doc_comments_and_strings_do_not_trip_rules() {
    let src = "/// Call `xs.first()` — never `xs.unwrap()` — like this:\n///\n/// ```\n/// let v = HashMap::new();\n/// std::thread::spawn(|| {});\n/// ```\nfn f() {\n    let _msg = \"don't panic!(now) or .unwrap() anything\";\n    // panic!(\"in a comment\")\n    /* nested /* block */ with .expect(\"x\") */\n}\n";
    assert!(hits("crates/numerics/src/foo.rs", src).is_empty());
}

#[test]
fn raw_strings_and_lifetimes_lex_cleanly() {
    let src = "fn f<'a>(s: &'a str) -> &'a str {\n    let _raw = r#\"panic!(\"quoted\")\"#;\n    let _c = 'x';\n    let _esc = '\\n';\n    s\n}\n";
    assert!(hits("crates/numerics/src/foo.rs", src).is_empty());
}

#[test]
fn a002_bench_artifact_prefix_outside_bench() {
    let src = "fn f() {\n    let path = \"BENCH_foo.json\";\n}\n";
    assert_eq!(hits("crates/recsys/src/foo.rs", src), vec![("ENW-A002".to_string(), 2)]);
    assert!(hits("crates/bench/src/bin/exp15.rs", src).is_empty());
}

#[test]
fn serve_is_a_kernel_crate_for_determinism_rules() {
    // The serving runtime's response stream is a pure function of the
    // trace, so hash iteration order (D001) and ambient clocks/entropy
    // (D002/D003) are denied in `crates/serve` library code — virtual
    // time only; real clocks stay in bench/parallel.
    let got = hits("crates/serve/src/scheduler.rs", "use std::collections::HashMap;\n");
    assert_eq!(got, vec![("ENW-D001".to_string(), 1)]);
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert_eq!(hits("crates/serve/src/clock.rs", src), vec![("ENW-D002".to_string(), 1)]);
    let src = "fn f() { let mut r = thread_rng(); }\n";
    assert_eq!(hits("crates/serve/src/loadgen.rs", src), vec![("ENW-D003".to_string(), 1)]);
    // Emitting report artifacts from serve is also denied (A002): the
    // JSON writer lives in the exp16 bench binary.
    let src = "fn f() { let _p = \"BENCH_serving.json\"; }\n";
    assert_eq!(hits("crates/serve/src/metrics.rs", src), vec![("ENW-A002".to_string(), 1)]);
}

#[test]
fn fleet_is_a_kernel_crate_for_determinism_rules() {
    // The fleet report is a pure function of (spec, trace) — routing,
    // shard placement and autoscaling all feed the byte-exact render —
    // so the fleet crate gets the same determinism discipline as serve.
    let got = hits("crates/fleet/src/ring.rs", "use std::collections::HashMap;\n");
    assert_eq!(got, vec![("ENW-D001".to_string(), 1)]);
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert_eq!(hits("crates/fleet/src/sim.rs", src), vec![("ENW-D002".to_string(), 1)]);
    let src = "fn f() { let mut r = thread_rng(); }\n";
    assert_eq!(hits("crates/fleet/src/shape.rs", src), vec![("ENW-D003".to_string(), 1)]);
    // The JSON writer lives in the exp19 bench binary, not the library.
    let src = "fn f() { let _p = \"BENCH_fleet.json\"; }\n";
    assert_eq!(hits("crates/fleet/src/sim.rs", src), vec![("ENW-A002".to_string(), 1)]);
}

#[test]
fn fleet_layering_allows_serving_stack_but_not_core() {
    let good = "[dependencies]\nenw-numerics.workspace = true\nenw-recsys.workspace = true\nenw-serve.workspace = true\nenw-parallel.workspace = true\nenw-trace.workspace = true\n";
    assert!(check_manifest("fleet", "crates/fleet/Cargo.toml", good).is_empty());
    // fleet sits below core like every workload crate; depending upward
    // is a layering violation, as is reaching for another workload lane.
    let bad = "[dependencies]\nenw-core.workspace = true\nenw-cam.workspace = true\n";
    let got = check_manifest("fleet", "crates/fleet/Cargo.toml", bad);
    let lines: Vec<_> = got.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(lines, vec![("ENW-A001", 2), ("ENW-A001", 3)]);
}

#[test]
fn cam_layering_allows_its_substrates_but_not_the_parallel_runtime() {
    let good = "[dependencies]\nenw-numerics.workspace = true\nenw-mann.workspace = true\nenw-xmann.workspace = true\nenw-trace.workspace = true\n";
    assert!(check_manifest("cam", "crates/cam/Cargo.toml", good).is_empty());
    // The bank sweeps its arrays in line; a fan-out cannot come back
    // without this row changing first.
    let bad = "[dependencies]\nenw-numerics.workspace = true\nenw-parallel.workspace = true\n";
    let got = check_manifest("cam", "crates/cam/Cargo.toml", bad);
    let lines: Vec<_> = got.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(lines, vec![("ENW-A001", 3)]);
}

#[test]
fn trace_is_a_kernel_crate_for_determinism_rules() {
    // TraceReport bytes are part of the reproducible output, so the trace
    // crate gets the full determinism treatment: no hash iteration order
    // (D001) and no ambient clocks (D002) — spans run on virtual time or
    // an installed time source only.
    let got = hits("crates/trace/src/recorder.rs", "use std::collections::HashMap;\n");
    assert_eq!(got, vec![("ENW-D001".to_string(), 1)]);
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert_eq!(hits("crates/trace/src/lib.rs", src), vec![("ENW-D002".to_string(), 1)]);
}

#[test]
fn a004_unchecked_constructor_in_kernel_crate() {
    let src =
        "impl Tile {\n    pub fn new_unchecked(n: usize) -> Self {\n        Tile { n }\n    }\n}\n";
    assert_eq!(hits("crates/crossbar/src/foo.rs", src), vec![("ENW-A004".to_string(), 2)]);
    let src = "pub fn from_parts_unchecked(a: u32) -> u32 { a }\n";
    assert_eq!(hits("crates/trace/src/foo.rs", src), vec![("ENW-A004".to_string(), 1)]);
    let src = "pub const fn unwrap_config(c: Option<u32>) -> u32 { 0 }\n";
    assert_eq!(hits("crates/serve/src/foo.rs", src), vec![("ENW-A004".to_string(), 1)]);
}

#[test]
fn a004_spares_validated_and_private_apis() {
    // Plain constructors, try_* APIs, and builders are the sanctioned
    // surface.
    let src = "pub fn new(n: usize) -> Self { Self { n } }\npub fn try_new(n: usize) -> Result<Self, E> { Ok(Self { n }) }\npub fn builder() -> Builder { Builder::default() }\n";
    assert!(hits("crates/crossbar/src/foo.rs", src).is_empty());
    // Crate-private helpers may do what they like.
    let src = "pub(crate) fn new_unchecked(n: usize) -> usize { n }\nfn also_unchecked() {}\n";
    assert!(hits("crates/crossbar/src/foo.rs", src).is_empty());
    // Non-kernel crates (reports, bookkeeping) are out of scope.
    let src = "pub fn new_unchecked(n: usize) -> usize { n }\n";
    assert!(hits("crates/core/src/foo.rs", src).is_empty());
    // Test modules inside kernel crates are exempt.
    let src = "#[cfg(test)]\nmod tests {\n    pub fn new_unchecked() {}\n}\n";
    assert!(hits("crates/crossbar/src/foo.rs", src).is_empty());
}

#[test]
fn m001_allocations_in_hot_function() {
    let src = "// enw:hot\npub fn kernel_into(xs: &[f32], out: &mut [f32]) {\n    let tmp = vec![0.0; xs.len()];\n    let copy = xs.to_vec();\n    let mut buf = Vec::with_capacity(xs.len());\n    let again = copy.clone();\n}\n";
    let got = hits("crates/numerics/src/foo.rs", src);
    let m001: Vec<u32> =
        got.iter().filter(|(r, _)| r == "ENW-M001").map(|&(_, line)| line).collect();
    assert_eq!(m001, vec![3, 4, 5, 6]);
}

#[test]
fn m001_spares_unannotated_code_but_binds_in_every_library_crate() {
    // The same body without the marker is fine: allocating wrappers stay.
    let src = "pub fn kernel(xs: &[f32]) -> Vec<f32> {\n    xs.to_vec()\n}\n";
    assert!(hits("crates/numerics/src/foo.rs", src).is_empty());
    // The annotation is an explicit opt-in and binds wherever it appears
    // in library code — including non-kernel crates like core and nn.
    let src = "// enw:hot\nfn helper(xs: &[f32]) -> Vec<f32> {\n    xs.to_vec()\n}\n";
    assert_eq!(hits("crates/core/src/foo.rs", src), vec![("ENW-M001".to_string(), 3)]);
    assert_eq!(hits("crates/nn/src/foo.rs", src), vec![("ENW-M001".to_string(), 3)]);
    // The tooling crates are out of scope (the analyzer must be able to
    // write fixtures; the bench harness allocates by design), and
    // enw-parallel owns the sanctioned scratch/combinator machinery.
    assert!(hits("crates/analyze/src/foo.rs", src).is_empty());
    assert!(hits("crates/bench/src/foo.rs", src).is_empty());
    assert!(hits("crates/parallel/src/foo.rs", src).is_empty());
}

#[test]
fn m001_catches_vec_new_format_collect_and_box() {
    // The gaps the line-scanner missed: `Vec::new()` + push, `format!`,
    // `.collect()`, `Box::new`, and `String` constructors.
    let src = "// enw:hot\npub fn hot(xs: &[f32], out: &mut [f32]) {\n    let mut v = Vec::new();\n    v.push(1.0);\n    let s = format!(\"{}\", xs.len());\n    let c: Vec<f32> = xs.iter().copied().collect();\n    let b = Box::new(xs.len());\n    let t = String::new();\n    let u = String::from(\"x\");\n}\n";
    let got = hits("crates/numerics/src/foo.rs", src);
    let m001: Vec<u32> =
        got.iter().filter(|(r, _)| r == "ENW-M001").map(|&(_, line)| line).collect();
    assert_eq!(m001, vec![3, 5, 6, 7, 8, 9]);
}

#[test]
fn m001_marker_binds_to_the_next_fn_only() {
    // The fn after the annotated one may allocate freely.
    let src = "// enw:hot\nfn hot(out: &mut [f32]) {\n    out.fill(0.0);\n}\n\nfn cold(xs: &[f32]) -> Vec<f32> {\n    xs.to_vec()\n}\n";
    assert!(hits("crates/mann/src/foo.rs", src).is_empty());
    // Doc comments between marker and fn do not detach the marker.
    let src = "// enw:hot\n/// Docs mentioning .clone() stay exempt.\nfn hot(xs: &[f32], out: &mut [f32]) {\n    let v = xs.to_vec();\n}\n";
    assert_eq!(hits("crates/mann/src/foo.rs", src), vec![("ENW-M001".to_string(), 4)]);
}

#[test]
fn m001_allows_scratch_and_into_idioms() {
    let src = "// enw:hot\npub fn matvec_into(m: &[f32], x: &[f32], out: &mut [f32]) {\n    let mut acc = enw_parallel::scratch::take_f32(x.len());\n    for (o, row) in out.iter_mut().zip(m.chunks(x.len())) {\n        *o = row.iter().zip(x).map(|(a, b)| a * b).sum();\n    }\n}\n";
    assert!(hits("crates/numerics/src/foo.rs", src).is_empty());
}

#[test]
fn serve_layering_allows_workloads_but_not_core() {
    let good = "[dependencies]\nenw-crossbar.workspace = true\nenw-cam.workspace = true\nenw-recsys.workspace = true\nenw-parallel.workspace = true\n";
    assert!(check_manifest("serve", "crates/serve/Cargo.toml", good).is_empty());
    // serve sits below core; depending upward is a layering violation.
    let bad = "[dependencies]\nenw-core.workspace = true\n";
    let got = check_manifest("serve", "crates/serve/Cargo.toml", bad);
    assert_eq!(got.first().map(|f| (f.rule, f.line)), Some(("ENW-A001", 2)));
}

#[test]
fn a001_illegal_dependency_direction() {
    let manifest = "[package]\nname = \"enw-numerics\"\n\n[dependencies]\nenw-parallel.workspace = true\nenw-recsys.workspace = true\n";
    let got = check_manifest("numerics", "crates/numerics/Cargo.toml", manifest);
    assert_eq!(got.len(), 1);
    let f = got.first().expect("one finding");
    assert_eq!((f.rule, f.line), ("ENW-A001", 6));
    assert!(f.message.contains("enw-recsys"));
}

#[test]
fn a001_unknown_crate_must_declare_layering() {
    let manifest = "[dependencies]\nenw-core.workspace = true\n";
    let got = check_manifest("shiny-new", "crates/shiny-new/Cargo.toml", manifest);
    assert_eq!(got.len(), 1);
    assert_eq!(got.first().map(|f| f.rule), Some("ENW-A001"));
}

#[test]
fn a003_unguarded_shim_dependency() {
    let bad = "[dependencies]\nproptest = { workspace = true }\n";
    let got = check_manifest("bench", "crates/bench/Cargo.toml", bad);
    assert_eq!(got.first().map(|f| (f.rule, f.line)), Some(("ENW-A003", 2)));
    let good = "[dependencies]\nproptest = { workspace = true, optional = true }\n\n[dev-dependencies]\nproptest.workspace = true\n";
    assert!(check_manifest("bench", "crates/bench/Cargo.toml", good).is_empty());
}

#[test]
fn allowlist_waives_matching_findings_and_flags_stale_entries() {
    let toml = "[[allow]]\nrule = \"ENW-P001\"\npath = \"crates/cam/src/foo.rs\"\ncontains = \"x.unwrap()\"\njustification = \"fixture: invariant documented elsewhere\"\n\n[[allow]]\nrule = \"ENW-P001\"\npath = \"crates/cam/src/gone.rs\"\ncontains = \"never matches\"\njustification = \"fixture: stale entry should be reported\"\n";
    let allow = parse_allowlist(toml).expect("valid allowlist");
    let raw = scan_source("crates/cam/src/foo.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let mut analysis = Analysis::default();
    apply_allowlist(raw, &allow, &mut analysis);
    assert_eq!(analysis.waived.len(), 1);
    assert_eq!(analysis.deny_count(), 0);
    // The stale second entry surfaces as a warn so lint.toml cannot rot.
    assert_eq!(analysis.findings.iter().map(|f| f.rule).collect::<Vec<_>>(), vec!["ENW-C001"]);
}

#[test]
fn allowlist_requires_a_real_justification() {
    let toml = "[[allow]]\nrule = \"ENW-P001\"\npath = \"x.rs\"\ncontains = \"y\"\njustification = \"ok\"\n";
    assert!(parse_allowlist(toml).is_err());
    let toml = "[[allow]]\nrule = \"ENW-P001\"\npath = \"x.rs\"\ncontains = \"y\"\n";
    assert!(parse_allowlist(toml).is_err(), "missing justification must be rejected");
}

#[test]
fn json_report_is_well_formed_enough_to_round_trip_keys() {
    let raw = scan_source("crates/cam/src/foo.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let mut analysis = Analysis::default();
    apply_allowlist(raw, &[], &mut analysis);
    analysis.files_scanned = 1;
    let json = analysis.to_json();
    for key in
        ["\"schema\"", "\"findings\"", "\"waived\"", "\"summary\"", "\"ENW-P001\"", "\"deny\""]
    {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // Quotes in snippets must be escaped: the source line
    // `x.expect("msg")` must appear with `\"msg\"` in the JSON.
    let raw =
        scan_source("crates/cam/src/foo.rs", "fn f(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n");
    let mut analysis = Analysis::default();
    apply_allowlist(raw, &[], &mut analysis);
    let json = analysis.to_json();
    assert!(json.contains("x.expect(\\\"msg\\\")"), "escaping broken: {json}");
}

#[test]
fn a005_encode_building_a_hash_map() {
    // A hash map materialized inside `Tunable::encode` is an ordering
    // bug even before anything iterates it.
    let src = "use std::collections::HashMap;\nimpl Tunable for Foo {\n    fn encode(&self) -> Point {\n        let m: HashMap<&str, i64> = HashMap::new();\n        point_from(m)\n    }\n}\n";
    let got = hits("crates/core/src/foo.rs", src);
    assert_eq!(got, vec![("ENW-A005".to_string(), 4)]);
}

#[test]
fn a005_encode_iterating_a_hash_field() {
    // Iterating a hash-typed field hits both the encode-specific rule
    // and the general returned-data rule (ENW-D006).
    let src = "use std::collections::HashMap;\nstruct Foo {\n    m: HashMap<&'static str, i64>,\n}\nimpl Tunable for Foo {\n    fn encode(&self) -> Point {\n        Point::new(self.m.iter().map(|(k, v)| (k, v)).collect())\n    }\n}\n";
    let got = hits("crates/core/src/foo.rs", src);
    assert_eq!(got, vec![("ENW-A005".to_string(), 7), ("ENW-D006".to_string(), 7)]);
}

#[test]
fn a005_silent_on_ordered_encode_and_other_traits() {
    // The workspace convention — a Vec of entries in struct-field
    // declaration order — is clean.
    let src = "impl Tunable for Foo {\n    fn encode(&self) -> Point {\n        Point::new(vec![(\"a\", AxisValue::Int(self.a))])\n    }\n}\n";
    assert!(hits("crates/core/src/foo.rs", src).is_empty());
    // `encode` methods of other traits are out of scope for A005 (the
    // determinism D-rules still apply on their own terms).
    let src = "use std::collections::HashMap;\nimpl Codec for Foo {\n    fn encode(&self) -> Vec<u8> {\n        let m: HashMap<u8, u8> = HashMap::new();\n        walk(m)\n    }\n}\n";
    assert!(hits("crates/core/src/foo.rs", src).is_empty());
}

#[test]
fn d001_dse_is_a_kernel_crate() {
    // Search trajectories and fronts are byte-stable outputs, so the
    // explorer lives under the hash-collection ban like the lanes do.
    let got = hits("crates/dse/src/foo.rs", "use std::collections::HashMap;\n");
    assert_eq!(got, vec![("ENW-D001".to_string(), 1)]);
}

#[test]
fn dse_layering_allows_core_but_not_lanes() {
    let good = "[dependencies]\nenw-core.workspace = true\nenw-parallel.workspace = true\n";
    assert!(check_manifest("dse", "crates/dse/Cargo.toml", good).is_empty());
    // The explorer drives lanes through core's Tunable surface only.
    let bad = "[dependencies]\nenw-crossbar.workspace = true\n";
    let got = check_manifest("dse", "crates/dse/Cargo.toml", bad);
    assert_eq!(got.first().map(|f| (f.rule, f.line)), Some(("ENW-A001", 2)));
}
