#!/usr/bin/env bash
# Local CI gate: everything a PR must pass before it lands.
#
#   scripts/ci.sh            # build + tests + clippy + fmt
#
# Tier-1 (the root-package tests) is `cargo test -q`; the workspace run
# covers every crate's unit, integration and property tests. Clippy is
# pinned to -D warnings so the tree stays lint-clean.

set -euo pipefail
cd "$(dirname "$0")/.."

# The session-count benches hold thousands of sockets at once (the 10k
# cell splits ~10k fds into each of two processes). Raise the soft fd
# limit to the hard limit up front, and fail early with a clear message
# when even the 1k-session smoke gate could not run.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
fd_soft=$(ulimit -n)
if [ "$fd_soft" != "unlimited" ] && [ "$fd_soft" -lt 4096 ]; then
    echo "FAIL: file-descriptor limit $fd_soft too small (need >= 4096 for the session benches)" >&2
    exit 1
fi
echo "==> fd limit: $fd_soft"

# One CRC-32 in the tree: dufs-net owns the implementation and dufs-wal
# compiles the same file, so a second copy of the polynomial is a second
# implementation somebody will forget to speed up or fix.
crc_files=$(grep -rl '0xEDB8_8320' crates/*/src | wc -l)
if [ "$crc_files" -ne 1 ]; then
    echo "FAIL: the CRC-32 polynomial 0xEDB8_8320 occurs in $crc_files files under crates/*/src (want exactly 1):" >&2
    grep -rl '0xEDB8_8320' crates/*/src >&2 || true
    exit 1
fi
echo "==> one CRC-32 implementation: $(grep -rl '0xEDB8_8320' crates/*/src)"

# One copy per hop on the data path: a stripe's bytes are borrowed from the
# caller's buffer or from the received frame all the way to the extent log
# and back, so an owned copy of a payload (`.to_vec()`) in the store's
# client/server/codec/engine code is the six-copies shape growing back.
# (Test modules, below `#[cfg(test)]`, may copy what they like.)
copies=$(for f in crates/store/src/{client,server,msg,file}.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} /\.to_vec\(\)/{print f":"NR": "$0}' "$f"
done)
if [ -n "$copies" ]; then
    echo "FAIL: .to_vec() on the store data path (outside #[cfg(test)]):" >&2
    echo "$copies" >&2
    exit 1
fi
echo "==> no .to_vec() in crates/store/src/{client,server,msg,file}.rs outside tests"

# One bench harness: `dufs-bench` is the only program of crates/bench, the
# only reader of its command line, and reports are written by `Report`
# alone — a second `fn main`, arg loop or hand-rolled JSON writer is the
# seventeen-binaries shape growing back.
count() { { grep -rE "$1" crates/bench/src || true; } | wc -l; }
mains=$(count '^\s*fn main\(')
args=$(count 'env::args')
writers=$(count 'fn write_json')
if [ "$mains" -ne 1 ] || [ "$args" -ne 1 ] || [ "$writers" -ne 0 ]; then
    echo "FAIL: crates/bench/src has $mains 'fn main' (want 1), $args 'env::args' (want 1), $writers 'fn write_json' (want 0)" >&2
    exit 1
fi
echo "==> one bench harness: 1 fn main, 1 env::args, 0 fn write_json under crates/bench/src"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The WAL corruption/recovery suite re-runs in release: torn-tail and
# fault-injection proptests exercise different code paths once the
# optimizer folds the framing code, and the 200-seed sweeps are slow
# enough in debug that they'd otherwise get trimmed. This also rebuilds
# the coord_server binary in release and runs the socket-backed suites:
# wire-codec proptests, the TCP e2e (ThreadCluster-vs-TcpCluster digest
# parity + NetStats non-zero), and the out-of-process kill-9 recovery
# harness (SIGKILL one member, then the whole ensemble; recovered
# namespace must match an uncrashed control). read_consistency rides the
# same step: its exact-zxid-count tests (no barrier after an acked write,
# exactly one after an abandoned write / a failover) and the
# restarted-replica tests start real durable ensembles and gate the
# ack-ordered read-your-writes rule on every later PR. So do tcp_server
# (a member started late is redialed and synced; a peer speaking garbage
# is hung up on) and thread_census (a TcpServer owns an accept thread and
# a loop thread, nothing per peer — alone in its binary, it reads
# /proc/self/task).
echo "==> cargo build --release -p dufs-coord --bin coord_server"
cargo build --release -p dufs-coord --bin coord_server
echo "==> cargo test -q --release -p dufs-wal -p dufs-coord (incl. tcp_e2e + tcp_server + thread_census + kill9_recovery + read_consistency)"
cargo test -q --release -p dufs-wal -p dufs-coord
# The CRC kernel against its byte-at-a-time reference: every length 0..=300
# at every start alignment plus MiB-sized buffers, too slow to be worth
# running unoptimised twice. (The store's golden frames and golden extent
# log run with the release store suite below.)
echo "==> cargo test -q --release -p dufs-net crc"
cargo test -q --release -p dufs-net crc

# Live mdtest digest-parity matrix. Every row runs the same deterministic
# op streams through `mdtest_sim --live` in a different client-stack shape
# and must land on the digest of its reference row — a wrong invalidation
# rule, routing bug or lost write shows up as a mismatch.
#
#   parity <label> <reference-digest|-> -- <mdtest_sim args…>
#
# prints the run's digest line to stderr and leaves it in $digest; with a
# reference other than "-" it fails the build unless the two are equal.
cargo build --release -p dufs-mdtest --bin mdtest_sim
parity() {
    local label=$1 reference=$2
    shift 3
    digest=$(target/release/mdtest_sim "$@" | grep -o 'digest 0x[0-9a-f]*' | head -n1 || true)
    if [ -z "$digest" ] || { [ "$reference" != "-" ] && [ "$digest" != "$reference" ]; }; then
        echo "FAIL: $label: ${digest:-no digest} (reference: $reference)" >&2
        exit 1
    fi
    echo "    $label: $digest" >&2
}
echo "==> mdtest live digest-parity matrix"
base="--procs 4 --items 10 --zk 3"
spread="$base --read-from spread --consistency sync"
# Reference: in-process channels, sessions at the leader.
parity "thread" - -- --live thread $base
d_thread=$digest
# Durable loopback sockets must converge on the identical namespace.
parity "tcp --durable" "$d_thread" -- --live tcp --durable --net-stats $base
# Follower reads: each process's session pinned to a DIFFERENT member
# (replica-local reads under SyncThenLocal) must not perturb the namespace.
parity "tcp spread" "$d_thread" -- --live tcp $spread
# Every session behind a private dufs-cache (leases on): leader-pinned on
# threads, and on TCP spread across followers — the placement where stale
# cache entries would actually diverge.
parity "thread --cache" "$d_thread" -- --live thread $base --cache
parity "tcp spread --cache" "$d_thread" -- --live tcp $spread --cache
# Every session attached to ONE process-shared cache: a wrong
# ownership/freshness rule or a missed cross-session eviction diverges here
# even when the private-cache rows stay clean.
parity "thread --cache-shared" "$d_thread" -- --live thread $base --cache-shared
parity "tcp spread --cache-shared" "$d_thread" -- --live tcp $spread --cache-shared
# Sharding: two independent single-voter ensembles behind the hash ring must
# build the same user-visible namespace as one (the digest is the
# owner-verified logical namespace, shard config znodes excluded).
sharded="--procs 4 --items 10 --zk 1"
parity "1 shard" - -- --live thread $sharded --shards 1
parity "2 shards" "$digest" -- --live thread $sharded --shards 2

# Sim-level cache-on/off parity (Cached over the in-process coordinator):
# the same mutation workload through a cached and an uncached connection
# must agree read-for-read and leave identical namespaces. These run in
# the workspace suite too; named here so the cache parity gate is
# explicit and fails loudly on its own line.
echo "==> sim cache parity (dufs-core cache:: tests)"
cargo test -q --release -p dufs-core cache::

# The Dufs stack matrix (tests/sim_vs_live.rs) again, optimised: the same
# POSIX op streams through `Dufs` over SoloCoord, {thread, tcp} × {no cache,
# private, shared} and {thread, tcp} × {1, 2 shards} × {no cache, shared}.
echo "==> cargo test -q --release --test sim_vs_live (Dufs stack matrix)"
cargo test -q --release --test sim_vs_live

# Data-path gate: the release store suite runs the torn-write/stripe-
# layout proptests, the TCP e2e, and the out-of-process data-server
# kill -9 harness (SIGKILL a store_server mid-write, restart over the
# same target directory, every acked write must read back with its CRC
# intact), and the golden bytes (tests/golden.rs: every wire frame, the
# extent log of a fixed history, a parent-written directory reopened). The store harnesses keep their target directories under
# $TMPDIR; clean them up even when a step fails. (The benches and
# mdtest_sim remove their own through `ScratchDir`'s drop.)
trap 'rm -rf "${TMPDIR:-/tmp}"/dufs-store-*' EXIT
echo "==> cargo build --release -p dufs-store --bin store_server"
cargo build --release -p dufs-store --bin store_server
echo "==> cargo test -q --release -p dufs-store (incl. golden + kill9_store)"
cargo test -q --release -p dufs-store

# Mixed metadata+data digest parity: with --data every file create also
# stripes path-derived contents across the data targets and every stat
# read-back-verifies the per-FID CRC. The read-back contents digest must
# be identical on the simulated path (in-memory targets), the thread
# runtime (shared in-memory targets), and real TCP store servers over
# durable file-backed targets with group fsync.
echo "==> mdtest mixed data digest parity (sim vs thread vs tcp)"
dd_args="--procs 4 --items 8 --zk 3 --backends 3 --data 700 --stripe 256 --zipf 0.9"
dd_sim=$(target/release/mdtest_sim $dd_args | grep -o 'data digest 0x[0-9a-f]*')
dd_thread=$(target/release/mdtest_sim --live thread $dd_args | grep -o 'data digest 0x[0-9a-f]*')
dd_tcp=$(target/release/mdtest_sim --live tcp $dd_args | grep -o 'data digest 0x[0-9a-f]*')
if [ "$dd_sim" != "$dd_thread" ] || [ "$dd_sim" != "$dd_tcp" ] || [ -z "$dd_sim" ]; then
    echo "FAIL: mixed data digest mismatch (sim: ${dd_sim:-none}, thread: ${dd_thread:-none}, tcp: ${dd_tcp:-none})" >&2
    exit 1
fi
echo "    parity OK: $dd_sim"

# Every experiment with a smoke gate, reduced: 1->4-target parallel reads
# scale >= 2x over file-backed targets (data); 1-vs-2-shard simulated runs
# agree on the logical namespace, error-free, the 1-shard run bit-identical
# to the unsharded one (shards); every (ensemble, placement) and cache-axis
# cell of the follower-read sweep serves reads, warm cells hit, shared cells
# bulk-warm, negative cells ride negative entries (reads); 1 000 concurrent
# demux sessions through one in-process echo server on a flat thread count
# (net). Each gate prints its own line; a failed one is named on stderr.
# The throughput comparisons of `reads` only gate at full op counts.
echo "==> dufs-bench smoke"
cargo run --release -q -p dufs-bench -- smoke

# Loopback transport sweep (gates the depth-K pipelining gain and the flat
# thread count over the full 1/100/1k/10k connection-count axis).
echo "==> dufs-bench net -> results/BENCH_net.json"
cargo run --release -q -p dufs-bench -- net

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "CI green."
