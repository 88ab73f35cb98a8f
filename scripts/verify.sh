#!/usr/bin/env bash
# Offline verification gate for the workspace. No network access needed:
# proptest resolves to the vendored shim in vendor/.
#
#   scripts/verify.sh          rustfmt + build + tests + clippy + lint
#                              fixture + rustdoc (tier-1)
#   scripts/verify.sh --full   additionally runs the property-test suites
#                              (--features proptest), loops tier-1
#                              20x to catch flakes, runs `enw gate` twice
#                              and compares every byte it writes, checks
#                              every other enw_perf workload against its
#                              digest pin (tcam_fewshot's check runs in
#                              both modes), and runs every plant of
#                              scripts/plants.txt
#   scripts/verify.sh --plants <crate>
#                              only the plants in one crate's files
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--plants" ]]; then
    exec scripts/plants.sh "${2:?usage: scripts/verify.sh --plants <crate>}"
fi

# First, so a formatting slip fails before anything builds (CI runs this
# script and has no rustfmt step of its own).
echo "== cargo fmt --all -- --check =="
cargo fmt --all -- --check

echo "== cargo build --release =="
cargo build --release

echo "== TCAM and row-scan codegen and huge-page mode on this host =="
# The AVX-512 arms' oracle tests skip where the CPU lacks the feature;
# these lines are how a log shows which arm ran. Nothing here selects one.
flags=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true) "
if [[ $flags == *" avx512f "* && $flags == *" avx512_vpopcntdq "* ]]; then
    echo "nearest_hamming codegen: avx512_vpopcntdq"
elif [[ $flags == *" popcnt "* ]]; then
    echo "nearest_hamming codegen: popcnt"
else
    echo "nearest_hamming codegen: portable"
fi
if [[ $flags == *" avx512f "* ]]; then
    echo "scan_rows / matvec_t arm: avx512f (16 rows / 64 columns abreast)"
else
    echo "scan_rows / matvec_t arm: sse2 (4 rows abreast)"
fi
# Embedding tables of 2 MiB or more ask for huge pages with madvise;
# under `[never]` they run on 4 KiB pages, same results, slower gathers.
echo "transparent_hugepage: $(cat /sys/kernel/mm/transparent_hugepage/enabled 2>/dev/null || echo unavailable)"

echo "== cargo test -q =="
cargo test -q

# The only sampled-point test of the five `Tunable::decode`s (round
# trip, out-of-bounds rejection). The feature is empty on enw-bench, so
# nothing but the one test binary rebuilds.
echo "== cargo test -q --features proptest --test tunable_properties =="
cargo test -q -p enw-bench --features proptest --test tunable_properties

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
# Runs E1..E14, E16, E17, E19..E21 and EXT-1..4 in smoke mode, writes the
# BENCH_*.json artifacts, and exits 1 naming every failed gate. No gate
# reads a host clock: every byte this writes is a function of the seed.
cargo run --release -q -p enw-bench --bin enw -- gate | tee target/gate.out

echo "== enw gate stdout: every experiment's block against its golden digest =="
# golden.txt holds one `<id> <sha256>` line per gate experiment: the
# digest of its stdout block, from its `== <id> [` header up to the next.
# A change that moves science updates a line and says so in CHANGES.md.
golden=crates/bench/src/bin/enw/golden.txt
rm -rf target/golden && mkdir -p target/golden
awk '/^== [^ ]+ \[/ { f = "target/golden/" $2 } f { print > f }' target/gate.out
for f in target/golden/*; do
    echo "${f##*/} $(sha256sum <"$f" | cut -d' ' -f1)"
done | sort >target/golden.txt
differ=$({ diff <(sort "$golden") target/golden.txt || true; } | awk '/^[<>]/ { print $2 }' | sort -u)
[[ -z $differ ]] || { echo "enw gate stdout differs from $golden for:" $differ; exit 1; }
echo "golden: all $(wc -l <"$golden") experiments match"

echo "== ENW_THREADS: E21 --smoke zero-alloc under =2; stdout equal at =1 and =2 over every fan-out =="
# The variable is read once per process, never per dispatch: E21's
# zero-alloc gate exits 1 if a tile update allocates with it set.
ENW_THREADS=2 cargo run --release -q -p enw-bench --bin enw -- run E21 --smoke >/dev/null
# The loops that fan out, by count: E4's 32-row tiles deal two 16-row
# chunks per pulse update, E17's recsys lane deals two 256-query blocks
# (at full size only: its smoke batch is 64 queries), E20 deals design
# points. The fourth, the TCAM bank's nearest search, deals 4,096-word
# chunks, and no experiment's bank holds more than one (E17's is 512
# words): the tcam_fewshot digest check below is what runs it dealt.
for t in 1 2; do
    ENW_THREADS=$t cargo run --release -q -p enw-bench --bin enw -- run E4 E17 >target/threads-$t.out
    ENW_THREADS=$t cargo run --release -q -p enw-bench --bin enw -- run E20 --smoke >>target/threads-$t.out
done
cmp target/threads-1.out target/threads-2.out \
    || { echo "stdout differs between ENW_THREADS=1 and ENW_THREADS=2"; exit 1; }

# The check a simulator-speed change must pass: a run off its pin in
# crates/bench/src/bin/enw_perf/digests.txt fails every op. Timings are
# not judged here; artifacts go to target/enw_perf/.
perf_digest() {
    local line
    line=$(cargo run --release -q -p enw-bench --bin enw_perf -- \
        --workload "$1" --seconds 3 --trace 0 | tail -n 1)
    [[ $line == '{"correct":true,'*'"failed":0,'* ]] \
        || { echo "enw_perf $1: $line"; exit 1; }
    echo "enw_perf $1: digest ok"
}
echo "== enw_perf tcam_fewshot: a 32,768-word bank, dealt, against its digest pin (3 s) =="
perf_digest tcam_fewshot

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
    echo "== enw_perf: every other workload reproduces its pinned digest (3 s each, untraced) =="
    for w in $(cargo run --release -q -p enw-bench --bin enw_perf -- list); do
        [[ $w == tcam_fewshot ]] || perf_digest "$w"
    done
    echo "== plants: every planted fault in scripts/plants.txt fails its named test =="
    scripts/plants.sh
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps =="
# A doc link to a renamed or deleted item fails here, not in a reader's
# browser.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tracked: workspace Rust lines (ROADMAP aim 2; no gate) =="
# Test lines: every file under a tests/ or examples/ directory, plus
# everything from a file's first `#[cfg(test)]` on. Only tracked files
# that exist are counted: a deletion not yet staged is still listed.
# One `crate non-test test` line per crate (files outside crates/ count
# under their top directory), then the workspace total.
git ls-files '*.rs' | while read -r f; do if [[ -f $f ]]; then echo "$f"; fi; done | xargs awk '
    FNR == 1 {
        in_test = (FILENAME ~ /(^|\/)(tests|examples)\//)
        split(FILENAME, part, "/")
        unit = part[1] == "crates" ? part[2] : part[1]
        units[unit] = 1
    }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    { if (in_test) { test++; unit_test[unit]++ } else { code++; unit_code[unit]++ } }
    END {
        print "crate non-test test"
        for (u in units) printf "%s %d %d\n", u, unit_code[u], unit_test[u] | "sort"
        close("sort")
        printf "%d total = %d non-test + %d test\n", code + test, code, test
    }'

echo "verify: OK"
