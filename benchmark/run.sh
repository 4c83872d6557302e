#!/usr/bin/env bash
# Build dufs-benchmark from source (offline, its own workspace and lock
# file) and run it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one workload; the
#                                   last stdout line is the result object
#   run.sh --repeat K [--seed N] [--seconds S]              K full sets, each
#                                   compared with the one before it
#   run.sh suite --out F [--seed N] [--seconds S] [--trace 0|1]
#   run.sh compare A.json B.json
#   run.sh manifest                                         prints BENCHMARK.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/dufs-benchmark"
out="$here/out"

case "${1:-}" in
--repeat)
    sets="$2"
    shift 2
    status=0
    for ((i = 1; i <= sets; i++)); do
        "$bin" suite --dir "$out" --out "$out/set-$i.json" "$@" || status=$?
        if ((i > 1)); then
            "$bin" compare "$out/set-$((i - 1)).json" "$out/set-$i.json" || status=$?
        fi
    done
    exit "$status"
    ;;
compare | manifest)
    exec "$bin" "$@"
    ;;
suite)
    shift
    exec "$bin" suite --dir "$out" "$@"
    ;;
*)
    exec "$bin" --dir "$out" "$@"
    ;;
esac
