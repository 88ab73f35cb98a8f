#!/usr/bin/env bash
# Re-runs the committed mutation suite, scripts/plants.txt: each plant
# edits one file of a scratch copy of the working tree, and the test its
# line names must then fail. The repo itself is never edited.
#
#   scripts/plants.sh            every plant
#   scripts/plants.sh <crate>    the plants in one crate's files
#                                (`serve` or `enw-serve`)
#
# A plant is caught when its test fails, survived when the test passes
# (or, on a line not flagged `hang`, runs out the timeout), stale when
# its source string is missing or repeated, and broken when the planted
# copy does not build. A `hang` line's test runs under a short timeout,
# planted and unplanted: its plant removes a wake-up, and the code it
# tests has no timed wait, so a caught plant never finishes. Each named
# test must pass on the unplanted copy first, in its line's timeout.
# Exits 1 on any plant that is not caught.
set -euo pipefail
cd "$(dirname "$0")/.."

crate=${1:-}
crate=${crate#enw-}
list=scripts/plants.txt
work=$PWD/target/plants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
timeout_s=120
hang_timeout_s=10
start=$SECONDS

# The plants as `file \t source \t replacement \t test \t flag` lines,
# filtered to one crate's files when asked.
lines=$(grep -v -e '^#' -e '^$' "$list" | awk -F'\t' -v c="$crate" 'c == "" || index($1, "crates/" c "/") == 1')
[[ -n $lines ]] || { echo "plants: no plant in $list matches '${1:-}'"; exit 1; }

echo "plants: copying the working tree to $tree"
rm -rf "$tree" && mkdir -p "$tree"
# `-m` stamps every file with the time of the copy: cargo judges freshness
# by mtime, and a file restored after an earlier run's plant would
# otherwise look older than the planted build in the shared target dir.
git ls-files -z --cached --others --exclude-standard \
    | tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xmf - -C "$tree"
[[ -f Cargo.lock ]] && cp Cargo.lock "$tree/"

# build_test <test args...>: build the test in the copy.
# run_test <flag> <test args...>: run it under its line's timeout.
build_test() { (cd "$tree" && cargo test -q "$@" --no-run) </dev/null >"$work/test.log" 2>&1; }
run_test() {
    local limit=$timeout_s
    [[ $1 == hang ]] && limit=$hang_timeout_s
    shift
    (cd "$tree" && timeout "$limit" cargo test -q "$@") </dev/null >"$work/test.log" 2>&1
}

echo "plants: every named test must pass unplanted"
while IFS=$'\t' read -r test flag; do
    # shellcheck disable=SC2086 # the field is a list of cargo arguments
    build_test $test && run_test "$flag" $test \
        || { tail -n 20 "$work/test.log"; echo "plants: '$test' fails unplanted"; exit 1; }
done < <(cut -f4,5 <<<"$lines" | sort -u)

caught=0 failed=0
while IFS=$'\t' read -r file from to test flag; do
    target=$tree/$file
    # `\n` in the source or replacement is a newline; \Q...\E matches the
    # source literally. A missing file counts as no match.
    count=0
    [[ -f $target ]] && count=$(FROM=$from perl -0777 -ne \
        '($f = $ENV{FROM}) =~ s/\\n/\n/g; print scalar(() = /\Q$f\E/g)' "$target")
    if [[ $count != 1 ]]; then
        status="stale ($count matches)"
    else
        cp "$target" "$work/saved"
        FROM=$from TO=$to perl -0777 -pi -e \
            '($f, $t) = ($ENV{FROM}, $ENV{TO}); s/\\n/\n/g for $f, $t; s/\Q$f\E/$t/' "$target"
        # shellcheck disable=SC2086
        if ! build_test $test; then
            status=broken
        else
            rc=0
            # shellcheck disable=SC2086
            run_test "$flag" $test || rc=$?
            if [[ $rc == 124 ]]; then
                [[ $flag == hang ]] && status=caught || status="survived (timed out)"
            elif [[ $rc != 0 ]]; then
                status=caught
            else
                status=survived
            fi
        fi
        cp "$work/saved" "$target"
    fi
    [[ $status == caught ]] && caught=$((caught + 1)) || failed=$((failed + 1))
    printf '%-8s %s: %s -> %s [%s]\n' "${status%% *}" "$file" "$from" "$to" "$test"
    [[ $status == caught ]] || echo "         $status"
done <<<"$lines"

echo "plants: $caught caught, $failed not caught, in $((SECONDS - start)) s"
[[ $failed == 0 ]]
