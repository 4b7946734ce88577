#!/usr/bin/env bash
# Non-test source lines per crate: every line of `crates/<crate>/src/**/*.rs`
# that is not inside a `#[cfg(test)] mod … { … }` block, not blank and not a
# comment-only line (`//`, `///`, `//!`).  This is the counting rule the
# simplification PRs quote in CHANGES.md; run it at the parent commit and at
# the change to reproduce their tables.
#
#   tools/source_lines.sh                 every crate, plus a total
#   tools/source_lines.sh runtime sim     only the named crates, plus a total
#
# It relies on rustfmt's layout: a test module opens with `mod <name> {` on
# the line after `#[cfg(test)]` and closes with `}` at the same indentation.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for dir in crates/*/src; do
        crates+=("$(basename "$(dirname "$dir")")")
    done
fi

count_crate() {
    find "crates/$1/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { pending = 0; skipping = 0 }
        skipping {
            if ($0 == close_line) skipping = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        pending {
            pending = 0
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{[[:space:]]*$/) {
                match($0, /^[[:space:]]*/)
                close_line = substr($0, 1, RLENGTH) "}"
                skipping = 1
                next
            }
            n++    # the attribute sat on a single item, which counts
        }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    '
}

total=0
printf '%-12s %8s\n' crate lines
for crate in "${crates[@]}"; do
    lines=$(count_crate "$crate")
    total=$((total + lines))
    printf '%-12s %8d\n' "$crate" "$lines"
done
printf '%-12s %8d\n' total "$total"
