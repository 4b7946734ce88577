#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the arguments
# given: `bash benchmark/run.sh [--workload NAME --seed N --seconds S
# --trace 0|1] [--smoke] [--out FILE] [--compare A.json B.json]`.
#
# It runs from this directory, so traces and results land in
# `benchmark/out/` and `benchmark/.cargo/config.toml` applies; a relative
# CARGO_TARGET_DIR keeps meaning what it meant where the caller stood.
set -euo pipefail
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="${PWD}/${CARGO_TARGET_DIR}"
fi
cd "$(dirname "${BASH_SOURCE[0]}")"
exec cargo run --release --offline --quiet -- "$@"
