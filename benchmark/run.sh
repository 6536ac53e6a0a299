#!/usr/bin/env bash
# Builds gemm-ld (default features: the binary users get) and the harness,
# then runs one workload:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--quick]
#   benchmark/run.sh --repeat-check [--runs N] [--seconds S] [--workload NAME]
#
# --trace 0 prints the end-to-end metrics (ldbench), --trace 1 the per-layer
# metrics (ldbench-layers) and writes benchmark/out/trace.json. The last line
# of stdout is the result object. Needs the whole repository: in a directory
# without the root Cargo.toml the first build fails and nothing is printed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

bin=ldbench
prev=
for arg in "$@"; do
    if [[ "$prev" == --trace && "$arg" == 1 ]]; then bin=ldbench-layers; fi
    prev="$arg"
done

# Each binary is built on its own, so a library change that breaks the layer
# replay cannot stop the end-to-end numbers from building.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p ld-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2

exec "$target/release/$bin" --gemm-ld "$target/release/gemm-ld" --out-dir "$here/out" "$@"
