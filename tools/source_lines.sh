#!/usr/bin/env bash
# Non-test source lines per crate: every line of `crates/<crate>/src/**/*.rs`
# that is not inside a `#[cfg(test)] mod … { … }` block, not blank and not a
# comment-only line (`//`, `///`, `//!`).  This is the counting rule the
# simplification PRs quote in CHANGES.md; run it at the parent commit and at
# the change to reproduce their tables.
#
#   tools/source_lines.sh                 every crate, plus a total
#   tools/source_lines.sh runtime sim     only the named crates, plus a total
#   tools/source_lines.sh --files cluster each file of the named crates (of
#                                         every crate without names), plus
#                                         a total
#
# It relies on rustfmt's layout: a test module opens with `mod <name> {` on
# the line after `#[cfg(test)]` and closes with `}` at the same indentation.
set -euo pipefail
cd "$(dirname "$0")/.."

per_file=0
if [ "${1:-}" = "--files" ]; then
    per_file=1
    shift
fi
if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for dir in crates/*/src; do
        crates+=("$(basename "$(dirname "$dir")")")
    done
fi

# Counts the files named on the command line: their sum, or with
# `-v per_file=1` one `file lines` row each.
count_files() {
    awk -v per_file="$per_file" '
        FNR == 1 { pending = 0; skipping = 0; order[++files] = FILENAME }
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
            n[FILENAME]++    # the attribute sat on a single item, which counts
        }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n[FILENAME]++ }
        END {
            for (i = 1; i <= files; i++) {
                if (per_file) printf "%-40s %8d\n", order[i], n[order[i]]
                sum += n[order[i]]
            }
            if (!per_file) print sum + 0
        }
    ' "$@"
}

total=0
if [ "$per_file" -eq 1 ]; then
    printf '%-40s %8s\n' file lines
else
    printf '%-12s %8s\n' crate lines
fi
for crate in "${crates[@]}"; do
    mapfile -t files < <(find "crates/$crate/src" -name '*.rs' | sort)
    if [ "$per_file" -eq 1 ]; then
        count_files "${files[@]}"
        lines=$(per_file=0 count_files "${files[@]}")
    else
        lines=$(count_files "${files[@]}")
        printf '%-12s %8d\n' "$crate" "$lines"
    fi
    total=$((total + lines))
done
if [ "$per_file" -eq 1 ]; then
    printf '%-40s %8d\n' total "$total"
else
    printf '%-12s %8d\n' total "$total"
fi
