#!/usr/bin/env bash
# Pins the counting rule of `tools/source_lines.sh`: copies the counter into
# a temporary tree holding one fixture crate — a test module, a test `impl`,
# a test `fn`, a test field and a test statement beside doc and line
# comments — runs it there, and fails unless it counts exactly the fixture's
# non-test source lines.  A change to the rule has to change this script's
# expected count too, so it shows in review.
#
#   tools/source_lines_selftest.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
mkdir -p "$tree/tools" "$tree/crates/fixture/src"
cp tools/source_lines.sh "$tree/tools/"

# The lines marked `counted` are the fixture's non-test source lines.
cat >"$tree/crates/fixture/src/lib.rs" <<'EOF'
//! A fixture crate: inner doc lines are not counted.

use std::sync::atomic::{AtomicU64, Ordering}; // counted

/// Doc lines are not counted.
pub struct Counter { // counted
    // Nor are line comments.
    pub value: u64, // counted
    #[cfg(test)]
    probes: AtomicU64,
} // counted

impl Counter { // counted
    /// Counts one more.
    pub fn bump(&mut self) { // counted
        self.value += 1; // counted
        #[cfg(test)]
        self.probes
            .fetch_add(1, Ordering::Relaxed);
    } // counted
} // counted

#[cfg(test)]
impl Counter {
    fn reset(&mut self) {
        self.value = 0;
    }
}

#[cfg(test)]
#[allow(dead_code)]
fn fixture() -> Counter {
    Counter {
        value: 0,
        probes: AtomicU64::new(0),
    }
}

pub fn after_the_test_items() -> u64 { // counted
    7 // counted
} // counted

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps() {
        let mut counter = fixture();
        counter.bump();
        assert_eq!(counter.value, 1);
    }
}
EOF

expected=$(grep -c '// counted$' "$tree/crates/fixture/src/lib.rs")
if [ "$expected" -ne 12 ]; then
    echo "source_lines selftest: the fixture marks $expected lines, not 12" >&2
    exit 1
fi
counted=$(bash "$tree/tools/source_lines.sh" fixture | awk '$1 == "fixture" { print $2 }')
per_file=$(bash "$tree/tools/source_lines.sh" --files fixture | awk '$1 == "total" { print $2 }')
if [ "$counted" != "$expected" ] || [ "$per_file" != "$expected" ]; then
    echo "source_lines selftest: counted $counted (per file $per_file), expected $expected" >&2
    exit 1
fi
echo "source_lines selftest: $counted of $expected lines, as expected"
