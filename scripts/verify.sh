#!/usr/bin/env bash
# Offline verification gate for the workspace. No network access needed:
# proptest resolves to the vendored shim in vendor/.
#
#   scripts/verify.sh          build + tests + clippy + lint fixture (tier-1)
#   scripts/verify.sh --full   additionally runs the property-test suites
#                              (--features proptest), loops tier-1
#                              20x to catch flakes, runs `enw gate` twice
#                              and compares every byte it writes, and
#                              checks every enw_perf workload against its
#                              digest pin
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== TCAM scan codegen on this host (bits::nearest_hamming, 256-bit words) =="
# The AVX-512 arm's oracle test skips where the CPU lacks the feature;
# this line is how a log shows which arm ran. Nothing here selects one.
flags=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true) "
if [[ $flags == *" avx512f "* && $flags == *" avx512_vpopcntdq "* ]]; then
    echo "nearest_hamming codegen: avx512_vpopcntdq"
elif [[ $flags == *" popcnt "* ]]; then
    echo "nearest_hamming codegen: popcnt"
else
    echo "nearest_hamming codegen: portable"
fi

echo "== cargo test -q =="
cargo test -q

# Library code may not panic outside a waiver at the site
# (`#[expect(clippy::..., reason = ...)]`); clippy.toml adds the
# determinism rules, and a waiver that matches nothing fails as
# `unfulfilled_lint_expectations`.
lints=(-D warnings -Dclippy::{unwrap_used,expect_used,panic,todo,unimplemented,unreachable})
echo "== cargo clippy --workspace --lib (panic lints + clippy.toml) =="
cargo clippy --workspace --lib -- "${lints[@]}"

echo "== lint fixture: every rule above still fires =="
# scripts/lint-fixture breaks each rule once, on a line marked `// lint:`;
# a marked line that draws no error means a rule has stopped biting.
fixture=$(cargo clippy -q --manifest-path scripts/lint-fixture/Cargo.toml --lib \
    --target-dir target/lint-fixture --message-format short -- "${lints[@]}" 2>&1 || true)
marked=0 unfired=0
while IFS=: read -r line rest; do
    marked=$((marked + 1))
    grep -q "^src/lib.rs:$line:" <<<"$fixture" \
        || { echo "lint fixture line $line drew no ${rest##*// lint: }"; unfired=$((unfired + 1)); }
done < <(grep -nE '// lint: [a-z_]+$' scripts/lint-fixture/src/lib.rs)
[[ $unfired == 0 ]] || exit 1
echo "lint fixture: all $marked marked lines fire"

echo "== enw gate (paper pins + every smoke experiment; each gate asserted in Rust) =="
# Runs E9, E10, E14 and E16..E21 in smoke mode, writes the BENCH_*.json
# artifacts, and exits 1 naming every failed gate. No gate reads a host
# clock: every byte this writes is a function of the seed.
cargo run --release -q -p enw-bench --bin enw -- gate

echo "== ENW_THREADS: E21 --smoke zero-alloc under =2; stdout equal at =1 and =2 over every fan-out =="
# The variable is read once per process, never per dispatch: E21's
# zero-alloc gate exits 1 if a tile update allocates with it set.
ENW_THREADS=2 cargo run --release -q -p enw-bench --bin enw -- run E21 --smoke >/dev/null
# The three loops that fan out, by count: E4's 32-row tiles deal two
# 16-row chunks per pulse update, E17's recsys lane deals two 256-query
# blocks (at full size only: its smoke batch is 64 queries), E20 deals
# design points.
for t in 1 2; do
    ENW_THREADS=$t cargo run --release -q -p enw-bench --bin enw -- run E4 E17 >target/threads-$t.out
    ENW_THREADS=$t cargo run --release -q -p enw-bench --bin enw -- run E20 --smoke >>target/threads-$t.out
done
cmp target/threads-1.out target/threads-2.out \
    || { echo "stdout differs between ENW_THREADS=1 and ENW_THREADS=2"; exit 1; }

if [[ "${1:-}" == "--full" ]]; then
    echo "== cargo test -q --features proptest (property suites) =="
    cargo test -q --features proptest
    echo "== cargo test -q x20 (tier-1 must be green on every run) =="
    for i in $(seq 1 20); do
        cargo test -q >target/tier1-loop.log 2>&1 \
            || { tail -n 40 target/tier1-loop.log; echo "tier-1 failed on run $i of 20"; exit 1; }
    done
    echo "tier-1: 20 of 20 green"
    echo "== enw gate twice: stdout, stderr and every BENCH_*.json byte-identical =="
    for d in target/gate-a target/gate-b; do
        rm -rf $d && mkdir -p $d
        (cd $d && ../release/enw gate >stdout 2>stderr)
    done
    diff -r target/gate-a target/gate-b \
        || { echo "two enw gate runs wrote different bytes"; exit 1; }
    echo "== enw_perf: every workload reproduces its pinned digest (3 s each, untraced) =="
    # The check a simulator-speed change must pass: a run off its pin in
    # crates/bench/src/bin/enw_perf/digests.txt fails every op. Timings
    # are not judged here; artifacts go to target/enw_perf/.
    for w in $(cargo run --release -q -p enw-bench --bin enw_perf -- list); do
        line=$(cargo run --release -q -p enw-bench --bin enw_perf -- \
            --workload "$w" --seconds 3 --trace 0 | tail -n 1)
        [[ $line == '{"correct":true,'*'"failed":0,'* ]] \
            || { echo "enw_perf $w: $line"; exit 1; }
        echo "enw_perf $w: digest ok"
    done
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tracked: workspace Rust lines (ROADMAP aim 2; no gate) =="
# Test lines: every file under a tests/ or examples/ directory, plus
# everything from a file's first `#[cfg(test)]` on.
git ls-files '*.rs' | xargs awk '
    FNR == 1 { in_test = (FILENAME ~ /(^|\/)(tests|examples)\//) }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    { if (in_test) test++; else code++ }
    END { printf "%d total = %d non-test + %d test\n", code + test, code, test }'

echo "verify: OK"
