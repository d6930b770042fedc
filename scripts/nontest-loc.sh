#!/usr/bin/env bash
# Non-test lines of code per crate and in the root `src`, plus the total.
#
# Counts, in every `.rs` file under `crates/<name>/src` and `src`, the lines
# before the file's first `#[cfg(test)]`, leaving out blank lines and lines
# that are only a `//` comment (doc comments included). `tests/`,
# `examples/`, `benchmark/` and `vendor/` are not counted.
#
# Usage: scripts/nontest-loc.sh   (from any directory; takes no options)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    local total=0 f
    while IFS= read -r f; do
        total=$((total + $(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
            grep -v '^\s*//' | grep -vc '^\s*$' || true)))
    done < <(find "$1" -name '*.rs' | sort)
    echo "$total"
}

sum=0
for dir in crates/*/src src; do
    name=${dir%/src}
    name=${name#crates/}
    [ "$dir" = src ] && name=src
    n=$(count "$dir")
    printf '%-12s %6d\n' "$name" "$n"
    sum=$((sum + n))
done
printf '%-12s %6d\n' total "$sum"
