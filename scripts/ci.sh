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

# One live mdtest client: every live run drives `Dufs`, which mints the FIDs
# and issues the znode requests. A raw znode request or a path-derived FID in
# the live driver is the second client growing back beside it.
if grep -rnE 'ZkRequest::(Create|Delete|Exists)|fid_for_path' \
    crates/mdtest/src/live.rs crates/mdtest/src/data.rs crates/mdtest/src/bin >&2; then
    echo "FAIL: the live mdtest driver bypasses Dufs (lines above)" >&2
    exit 1
fi
echo "==> one live mdtest client: no raw znode requests or path-derived FIDs in the live driver"

# One owner per field of the coordination server's state: `CoordServer` is
# the event router over five private types (in-flight writes, sessions,
# leases, 2PC table, durability — DESIGN.md, "Anatomy of `CoordServer`"),
# each in its own file of crates/coord/src/server/ behind private fields. A
# field name showing up in a second file, or a field made visible to the
# module, is the 24-field struct every method could touch growing back.
for field in txn_fences prepared_txns barrier_riders open_barrier next_session; do
    owners=$(grep -lw "$field" crates/coord/src/server/*.rs | wc -l)
    if [ "$owners" -ne 1 ]; then
        echo "FAIL: '$field' occurs in $owners files under crates/coord/src/server/ (want exactly 1):" >&2
        grep -lw "$field" crates/coord/src/server/*.rs >&2 || true
        exit 1
    fi
done
visible=$(for f in crates/coord/src/server/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit}
        /^[[:space:]]+pub(\((super|crate)\))?[[:space:]]+[a-z_0-9]+:/{print f":"NR": "$0}' "$f"
done)
if [ -n "$visible" ]; then
    echo "FAIL: non-private field in crates/coord/src/server/ (outside #[cfg(test)]):" >&2
    echo "$visible" >&2
    exit 1
fi
echo "==> one owner per coordination-server field: 5 names in 1 file each, no pub field"

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

# The Dufs stack matrix (tests/sim_vs_live.rs) again, optimised: the mdtest
# op streams through one `Dufs` client and one thread per process over
# SoloCoord, {thread, tcp} x {leader, spread} x {no cache, private, shared},
# tcp durable, {thread, tcp} x {1, 2 shards} x {no cache, shared} and two
# mixed metadata+data cells, every cell held to the simulated run's digest.
echo "==> cargo test -q --release --test sim_vs_live (Dufs stack matrix)"
cargo test -q --release --test sim_vs_live

# The human-facing runner over the same driver: two live shapes must exit 0
# and print the replicated digest of the plain simulated run with the same
# --procs/--items/--zk/--backends. (After all six phases that digest covers
# the emptied tree — the roots and their child-version counters; the
# populated tree is what the matrix above compares.)
cargo build --release -p dufs-mdtest --bin mdtest_sim
echo "==> mdtest_sim --live smoke runs against the simulated digest"
d_sim=""
for run in "" "--live tcp --durable --cache-shared" \
           "--live tcp --data 700 --stripe 256 --zipf 0.9"; do
    digest=$(target/release/mdtest_sim $run --procs 4 --items 8 --zk 3 --backends 3 |
        grep -o 'replicated digest 0x[0-9a-f]*') || digest=""
    if [ -z "$digest" ] || [ "$digest" != "${d_sim:=$digest}" ]; then
        echo "FAIL: mdtest_sim $run: ${digest:-no digest} (simulated: $d_sim)" >&2
        exit 1
    fi
    echo "    ${run:-simulated}: $digest"
done

# Sim-level cache-on/off parity (Cached over the in-process coordinator):
# the same mutation workload through a cached and an uncached connection
# must agree read-for-read and leave identical namespaces. These run in
# the workspace suite too; named here so the cache parity gate is
# explicit and fails loudly on its own line.
echo "==> sim cache parity (dufs-core cache:: tests)"
cargo test -q --release -p dufs-core cache::

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

# State-machine outputs are order-stable: the simulator is bit-deterministic
# per seed and every `ServerOut` of the coordination server is an event in
# it, so three of the simulated tables regenerated at paper scale (~25 s)
# must come out byte-identical to the committed files. A diff here is a
# change in what the server emits or in what order, not noise.
echo "==> FULL=1 dufs-bench fig07 zab observers (must reproduce the committed tables)"
for e in fig07 zab observers; do
    FULL=1 cargo run --release -q -p dufs-bench -- "$e" >/dev/null
done
if ! git diff --exit-code results/fig07_zk_throughput.txt results/bench_zab.txt \
    results/bench_observers.txt >&2; then
    echo "FAIL: the coordination state machine's outputs moved (diff above)" >&2
    exit 1
fi

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
