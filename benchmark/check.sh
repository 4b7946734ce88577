#!/usr/bin/env bash
# Smoke check of the benchmark: `bash benchmark/check.sh`.
#
# Runs every workload in --smoke mode (1 round x 2 slices of 0.5 s on small
# worlds, every invariant and the traced run still executed) and fails on a
# violated invariant or a failed operation (the benchmark's own exit code)
# and on any workload or metric name of BENCHMARK.json that the results
# document does not contain.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${here}/out/smoke.json"
mkdir -p "${here}/out"

bash "${here}/run.sh" --smoke --out "${out}"

missing=0
while read -r name; do
    if ! grep -q "\"${name}\"" "${out}"; then
        echo "check.sh: ${name} is in BENCHMARK.json but not in ${out}" >&2
        missing=1
    fi
done < <(grep -o '"name": *"[^"]*"' "${here}/../BENCHMARK.json" | sed 's/.*"\([^"]*\)"$/\1/')
if [[ "${missing}" -ne 0 ]]; then
    exit 1
fi
echo "check.sh: every invariant held, no operation failed, every metric present"
