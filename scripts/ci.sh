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
repo=$(pwd)

# The committed results/ are paper-scale runs; nothing CI runs may rewrite
# them. Their contents now are what the last step compares against.
results_sums() { git ls-files -z results | xargs -0 sha256sum; }
results_at_start=$(results_sums)

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

# Every gate below reads a source file only up to its first `#[cfg(test)]`
# line, so that line must open the test module. A test-only `use` or item
# above it would hide the rest of the file from every gate and from every
# line count taken that way.
stray=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/{at = NR; getline nxt; if (nxt !~ /^mod /) print f":"at": "nxt; exit}' "$f"
done)
if [ -n "$stray" ]; then
    echo "FAIL: the first #[cfg(test)] of a file under crates/*/src is not followed by a mod line:" >&2
    echo "$stray" >&2
    exit 1
fi
echo "==> every first #[cfg(test)] under crates/*/src opens a test module"

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

# Every unsafe block says why it is sound: a non-test `unsafe { … }` or
# `unsafe fn` under crates/*/src needs a `// SAFETY:` comment (for a block)
# or a `# Safety` doc section (for a fn) within the three lines above it.
# The foreign calls of crates/net/src/sys.rs and the CRC kernel's loads and
# dispatch are the tree's only unsafe code; a new block without its reason
# is an unreviewed one. (Test modules, below `#[cfg(test)]`, are exempt.)
undocumented=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit}
        $0 !~ /^[[:space:]]*\/\// && $0 ~ /(^|[^[:alnum:]_])unsafe([[:space:]]*\{|[[:space:]]+fn[[:space:]])/ &&
            (p3 "\n" p2 "\n" p1) !~ /SAFETY:|# Safety/ {print f":"NR": "$0}
        {p3 = p2; p2 = p1; p1 = $0}' "$f"
done)
if [ -n "$undocumented" ]; then
    echo "FAIL: unsafe without a // SAFETY: comment or # Safety doc in the three lines above (outside #[cfg(test)]):" >&2
    echo "$undocumented" >&2
    exit 1
fi
echo "==> every unsafe block and unsafe fn under crates/*/src has its SAFETY reason"

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
# the event router over five private types (requests in flight, sessions,
# leases, 2PC table, durability — DESIGN.md, "Anatomy of `CoordServer`"),
# each in its own file of crates/coord/src/server/ behind private fields. A
# field name showing up in a second file, or a field made visible to the
# module, is the 24-field struct every method could touch growing back.
for field in txn_fences prepared_txns next_tag next_checkpoint next_session; do
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

# The same rule for the ZAB peer: `ZabPeer` routes over four private types —
# the log, the election, the leader's broadcast and the learner's sync
# (DESIGN.md, "Anatomy of `ZabPeer`") — each in its own file of
# crates/zab/src/peer/ behind private fields. (`DurableState`, `NotLeader`
# and `Role` in peer/mod.rs are public API, so the field check skips it.)
for field in applied sync_points pending_snap distrust_ttl quorum_miss_windows; do
    owners=$(grep -lw "$field" crates/zab/src/peer/*.rs | wc -l)
    if [ "$owners" -ne 1 ]; then
        echo "FAIL: '$field' occurs in $owners files under crates/zab/src/peer/ (want exactly 1):" >&2
        grep -lw "$field" crates/zab/src/peer/*.rs >&2 || true
        exit 1
    fi
done
visible=$(for f in crates/zab/src/peer/{log,election,broadcast,learner}.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit}
        /^[[:space:]]+pub(\((super|crate)\))?[[:space:]]+[a-z_0-9]+:/{print f":"NR": "$0}' "$f"
done)
if [ -n "$visible" ]; then
    echo "FAIL: non-private field in crates/zab/src/peer/ (outside #[cfg(test)]):" >&2
    echo "$visible" >&2
    exit 1
fi
echo "==> one owner per ZAB peer field: 5 names in 1 file each, no pub field in the four pieces"

# One simulated mdtest client: `ClientProc` runs every system under test
# (raw, DUFS, native) as one set-up/phase/timeout machine over an op source,
# `scenario.rs` assembles the testbed once, and the logical-namespace digest
# is folded once, in `dufs_coord::shard::logical_digest`. A second client
# `Process`, a second controller report, a second `Sim::new` or another copy
# of the FNV fold is the three hand-written clients growing back. (Test
# modules, below `#[cfg(test)]`, may build what they like.)
nontest() { awk '/^#\[cfg\(test\)\]/{exit} {print}' "$@"; }
procs=$(nontest crates/mdtest/src/clients.rs | grep -c 'impl Process<ClusterMsg>' || true)
reports=$(nontest crates/mdtest/src/clients.rs | grep -c 'ClusterMsg::PhaseDone {' || true)
sims=$(nontest crates/mdtest/src/scenario.rs | grep -c 'Sim::new' || true)
fnv=$( (nontest crates/mdtest/src/scenario.rs; nontest crates/coord/src/sharded.rs) |
    grep -c '0xcbf2_9ce4_8422_2325' || true)
if [ "$procs" -ne 1 ] || [ "$reports" -ne 1 ] || [ "$sims" -ne 1 ] || [ "$fnv" -ne 0 ]; then
    echo "FAIL: clients.rs has $procs 'impl Process<ClusterMsg>' and $reports 'ClusterMsg::PhaseDone {' (want 1 each), scenario.rs $sims 'Sim::new' (want 1), scenario.rs + sharded.rs $fnv FNV offset bases (want 0)" >&2
    exit 1
fi
echo "==> one simulated client: 1 client Process, 1 PhaseDone, 1 Sim::new, FNV digest only in shard.rs"

# One layout per message: every wire, WAL, extent-log and znode-data
# layout is declared once with `dufs_net::wire!`, which emits its encoder,
# decoder and tag list. A hand-written decoder (`fn wire_decode`), tag
# check (`BadTag(`) or field writer/reader (`put_u64(`, `get_u32_le(`, …)
# is a second copy of a layout growing back. Exempt: the codec itself
# (crates/net/src/wire.rs), and the snapshot (crates/zkstore/src/
# snapshot.rs), which sizes a tree-sized blob first and writes it once into
# the shared buffer — a declared layout appends to a `Vec`, which the
# `bytes` shim then copies, so two blobs would be held at once. (Test
# modules, below `#[cfg(test)]`, are exempt.)
layouts=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    case "$f" in crates/net/src/wire.rs | crates/zkstore/src/snapshot.rs) continue ;; esac
    nontest "$f" |
        { grep -nE 'BadTag\(|fn wire_decode|(get|put)_u(8|16|32|64|128)(_le)?\(' || true; } |
        sed "s|^|$f:|"
done)
if [ -n "$layouts" ]; then
    echo "FAIL: a hand-written codec outside dufs_net::wire! (outside #[cfg(test)]):" >&2
    echo "$layouts" >&2
    exit 1
fi
echo "==> one layout per message: no BadTag(, fn wire_decode or get_/put_u<N>( outside crates/net/src/wire.rs and the snapshot"

# One sharded router: the simulator's DUFS client sends every coordination
# request through `dufs_coord::sharded::route`, the `async fn` the live
# `ShardedClient` runs, so the two run one protocol. Routing by hand in
# the simulator (`route_path(`, `route_children(`) or a delete state
# machine of its own (`enum SDel`) is the second copy growing back. (Test
# modules, below `#[cfg(test)]`, are exempt.)
router=$(for f in crates/mdtest/src/*.rs; do
    nontest "$f" | { grep -nE 'route_path\(|route_children\(|enum SDel' || true; } | sed "s|^|$f:|"
done)
if [ -n "$router" ]; then
    echo "FAIL: sharded routing outside sharded::route in crates/mdtest/src (outside #[cfg(test)]):" >&2
    echo "$router" >&2
    exit 1
fi
echo "==> one sharded router: no route_path(, route_children( or enum SDel in non-test crates/mdtest/src"

# One protocol idiom: the DUFS op planner (`plan::run`) and the shard
# router (`sharded::route`) are `async fn`s over a small io trait, and the
# simulator polls one future per op. A continuation enum (`enum St`,
# `enum Hop`), a replay tape (`struct Tape`, `enum Halt`) or a hand-written
# `fn feed(` in the planner, the router or the simulator's client is the
# second idiom growing back. (Test modules, below `#[cfg(test)]`, are
# exempt.)
idiom=$(for f in crates/core/src/plan.rs crates/coord/src/sharded.rs crates/mdtest/src/clients.rs; do
    nontest "$f" | { grep -nE 'struct Tape|enum Halt|enum St\b|enum Hop|fn feed\(' || true; } |
        sed "s|^|$f:|"
done)
if [ -n "$idiom" ]; then
    echo "FAIL: a step machine beside the async protocols (outside #[cfg(test)]):" >&2
    echo "$idiom" >&2
    exit 1
fi
echo "==> one protocol idiom: no struct Tape, enum Halt, enum St, enum Hop or fn feed( in plan.rs, sharded.rs or clients.rs"

# One back-end hop in the DUFS op planner: `plan.rs::file_call` is the one
# place a FID becomes a mount (`backend_of`) and a physical path
# (`physical_path`), for every op's back-end request and for the `Dufs`
# handle fast path alike. A second call in the planner or the VFS is the
# per-op copies growing back.
for call in 'backend_of(' 'physical_path('; do
    n=$( (nontest crates/core/src/plan.rs; nontest crates/core/src/vfs.rs) | grep -oF "$call" | wc -l)
    if [ "$n" -ne 1 ]; then
        echo "FAIL: '$call' occurs $n times in non-test crates/core/src/{plan,vfs}.rs (want exactly 1)" >&2
        exit 1
    fi
done
echo "==> one back-end hop in the planner: 1 backend_of( and 1 physical_path( in plan.rs + vfs.rs"

# One write routine in the transport: an owner's `Conn::flush` and the
# reactor's flushes both run `ConnShared::write_queued` under the queue lock,
# which is what keeps a connection's frames whole and in order whoever writes
# them, and keeps a flush off a descriptor the reactor has closed. A second
# `writev_fd(` call outside `sys.rs`'s definition is a second writer growing
# back beside it.
writes=$(for f in crates/net/src/*.rs; do nontest "$f"; done | grep -v 'fn writev_fd(' |
    grep -oF 'writev_fd(' | wc -l)
if [ "$writes" -ne 1 ]; then
    echo "FAIL: 'writev_fd(' is called $writes times in non-test crates/net/src (want exactly 1)" >&2
    exit 1
fi
echo "==> one transport write routine: 1 writev_fd( call in non-test crates/net/src"

# One live runtime: a coordination ensemble runs live on loopback sockets
# (`TcpCluster`), which also crashes and restarts members in place. The
# channel runtime it replaced, or a builder that starts one, is a second
# runtime growing back beside it.
runtime_pat='ThreadCluster|ChannelTransport|ChannelHost|sharded_threads|\.threads\(\)'
if grep -rnE "$runtime_pat" crates tests examples src >&2; then
    echo "FAIL: a second live runtime under crates/, tests/, examples/ or src/ (lines above)" >&2
    exit 1
fi
echo "==> one live runtime: no channel runtime under crates/, tests/, examples/, src/"

# One member driver: `dufs_coord::event_loop::Member` builds the coordination
# server, drops inputs while it is crashed, keeps and voids its timers and
# routes its outputs, for both of its hosts — the TCP server and the
# simulator's `CoordServerProc`. A host that matches the server's outputs,
# names its timers or crashes the state machine itself is a second copy of
# that glue growing back. (Test modules, below `#[cfg(test)]`, are exempt.)
glue_pat='ServerOut::(Timer|Client|Watch)|CoordTimer|on_crash\(\)'
glue=$(for f in crates/coord/src/tcp.rs crates/mdtest/src/*.rs; do
    nontest "$f" | { grep -nE "$glue_pat" || true; } | sed "s|^|$f:|"
done)
if [ -n "$glue" ]; then
    echo "FAIL: member glue outside event_loop.rs (outside #[cfg(test)]):" >&2
    echo "$glue" >&2
    exit 1
fi
echo "==> one member driver: no ServerOut::{Timer,Client,Watch}, CoordTimer or on_crash() in tcp.rs or crates/mdtest/src"

# One typed session surface: the `zoo_*` calls (`create`, `get_data`,
# `multi`, …) are provided methods of `CoordService`, written once over
# `request`, so `ZkClient`, `ShardedClient`, `Cached` and a test double that
# writes only `request` all speak them with one signature. A `pub fn` of one
# of those names in crates/{coord,cache}/src is a second copy growing back;
# only `ZkClient` (runtime.rs) keeps one-line delegations for the read and
# multi calls the benchmark names. (Test modules, below `#[cfg(test)]`, are
# exempt.)
typed=$(find crates/coord/src crates/cache/src -name '*.rs' | sort | while read -r f; do
    pat='pub fn (create|create_path|delete|set_data)\('
    [ "$f" = crates/coord/src/runtime.rs ] ||
        pat='pub fn (create|create_path|delete|set_data|get_data|exists|get_children|get_children_data|multi)\('
    nontest "$f" | { grep -nE "$pat" || true; } | sed "s|^|$f:|"
done)
if [ -n "$typed" ]; then
    echo "FAIL: a typed zoo_* call defined outside CoordService (outside #[cfg(test)]):" >&2
    echo "$typed" >&2
    exit 1
fi
echo "==> one typed session surface: no pub fn create/delete/set_data/… in crates/{coord,cache}/src outside CoordService (ZkClient's frozen reads excepted)"

# One lease path, one layout read: a staleness lease is renewed only by the
# `Ping` that `Cached::lease_license` sends (stamped at the ask), and a
# `ShardedClient` reads `/__shards` once, at `connect`. A heartbeat slot
# that carries a payload, a pushed grant, or a live layout re-read is a
# second lease path or a second layout read growing back. (Test modules,
# below `#[cfg(test)]`, are exempt.)
once=$(find crates/net/src crates/coord/src crates/cache/src -name '*.rs' | sort | while read -r f; do
    pat='idle_source|pushed_lease|ServerFrame::Lease|maybe_refresh|poll_shard0'
    case "$f" in
    crates/coord/src/session.rs | crates/coord/src/sharded.rs) pat="$pat|fn epoch\(" ;;
    esac
    nontest "$f" | { grep -nE "$pat" || true; } | sed "s|^|$f:|"
done)
if [ -n "$once" ]; then
    echo "FAIL: a second lease path or layout read in crates/{net,coord,cache}/src (outside #[cfg(test)]):" >&2
    echo "$once" >&2
    exit 1
fi
echo "==> one lease path, one layout read: no idle_source, pushed_lease, ServerFrame::Lease, maybe_refresh, poll_shard0 or session/sharded fn epoch("

# One clock in the cache: every stamp the cache makes (an entry's install,
# a foreign entry's age, a negative entry's TTL, a lease's ask and expiry)
# reads the session's clock, `CoordService::now`, which a test drives by
# hand. A wall-clock read in the cache is a second clock growing back.
# (Test modules, below `#[cfg(test)]`, are exempt.)
clock=$(for f in crates/cache/src/*.rs; do
    nontest "$f" | { grep -nE 'Instant::now|\.elapsed\(\)|SystemTime' || true; } | sed "s|^|$f:|"
done)
if [ -n "$clock" ]; then
    echo "FAIL: $(echo "$clock" | wc -l) wall-clock reads in non-test crates/cache/src:" >&2
    echo "$clock" >&2
    exit 1
fi
echo "==> one clock in the cache: no Instant::now, .elapsed() or SystemTime in non-test crates/cache/src"

# One request in flight, one round per barrier: a live session sends one
# request and awaits its reply (`ZkClient::request`), and every `Sync`
# proposes a no-op of its own, answered from its own `Inflight` entry. A
# second request path (`submit`/`next_completion`, pipelined-write
# bookkeeping) or a barrier that rides another session's no-op is the
# pipelining and coalescing growing back. (Test modules, below
# `#[cfg(test)]`, are exempt; a transport still carries any number of
# frames, so raw `ClientTransport::send` windows stay legal.)
one=$(find crates/coord/src crates/cache/src -name '*.rs' | sort | while read -r f; do
    nontest "$f" |
        { grep -nE 'fn submit\(|next_completion|inflight_writes|coalesc|open_barrier|barrier_riders' || true; } |
        sed "s|^|$f:|"
done)
if [ -n "$one" ]; then
    echo "FAIL: a second request path or a coalesced barrier in crates/{coord,cache}/src (outside #[cfg(test)]):" >&2
    echo "$one" >&2
    exit 1
fi
echo "==> one request in flight, one round per barrier: no fn submit(, next_completion, inflight_writes, coalesc, open_barrier or barrier_riders in crates/{coord,cache}/src"

# One durability point: a coordination member asks its log for a sync once
# per pass of its host's loop, after that pass's proposals left and before
# anything else does. `CoordServer::sync` is that point and the only caller
# of `Durability::sync`, which is the only caller of `Wal::sync` in
# `crates/coord/src/server`. (The log's own syncs where it rotates a
# segment, writes a checkpoint or resets stay inside `dufs-wal`, out of this
# gate's scope.) A sync anywhere else (in the ZAB action loop, in recovery,
# in a host) is a second durability point growing back beside it, and with
# it the leader's fsync ahead of its proposals. (Test modules, below
# `#[cfg(test)]`, are exempt.)
# Only `Durability` holds the log, and only the server module holds a
# `Durability`: so every `.sync(` in durability.rs and every
# `durability.sync(` in the rest of the module is listed with its function.
syncs=$(for f in crates/coord/src/server/*.rs; do
    call='durability\.sync\('
    [ "$f" = crates/coord/src/server/durability.rs ] && call='[a-z_)]*\.sync\('
    nontest "$f" | awk -v f="$f" -v call="$call" '
        /^[ \t]*(pub[^ ]* )?fn [a-z_0-9]+/ { name = $0; sub(/.*fn /, "", name); sub(/[^a-z_0-9].*/, "", name) }
        match($0, call) { print f ": fn " name ": " substr($0, RSTART, RLENGTH) }'
done)
want_syncs='crates/coord/src/server/durability.rs: fn sync: wal.sync(
crates/coord/src/server/mod.rs: fn sync: durability.sync('
if [ "$syncs" != "$want_syncs" ]; then
    echo "FAIL: the log is synced outside the one durability point (want Wal::sync only in Durability::sync, Durability::sync only in CoordServer::sync):" >&2
    echo "$syncs" >&2
    exit 1
fi
echo "==> one durability point: the log's one .sync( in Durability::sync, durability.sync( only in CoordServer::sync"

# One record frame: the socket, the write-ahead log and the extent log all
# frame their bytes as `len | crc32 | payload` records, and the log's
# snapshots and the extent log's index.bin are sealed files around one;
# `dufs_net::record` (which dufs-wal compiles through `#[path]`) builds their
# heads, scans the logs and seals the files. A CRC taken by hand in the log
# or the extent log, or a second definition of the record cap (a constant or
# a config field), is a private copy of the frame growing back. (Test
# modules, below `#[cfg(test)]`, are exempt.)
crcs=$(for f in crates/wal/src/log.rs crates/store/src/file.rs; do
    nontest "$f" | { grep -nE '(^|[^[:alnum:]_])crc32(_parts)?\(' || true; } | sed "s|^|$f:|"
done)
caps=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    nontest "$f" | { grep -nE 'const (MAX_FRAME|MAX_RECORD)\b|pub max_frame:' || true; } | sed "s|^|$f:|"
done)
if [ -n "$crcs" ] || [ "$(echo "$caps" | grep -c .)" -ne 1 ]; then
    echo "FAIL: a record framed outside dufs_net::record (crc32( / crc32_parts( calls in log.rs or file.rs, or not exactly one record cap under crates/*/src):" >&2
    echo "${crcs:-(no crc32 calls)}" >&2
    echo "${caps:-(no cap)}" >&2
    exit 1
fi
echo "==> one record frame: no crc32( in non-test wal/src/log.rs or store/src/file.rs, one cap: ${caps%%:*}"

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
# wire-codec proptests, the TCP e2e (TcpCluster-vs-in-process-server digest
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
# The CRC kernels against their byte-at-a-time reference: the portable
# loop and the dispatching `crc32` at every length 0..=1100 (across the
# 16-, 64- and 128-byte edges) at every start alignment, plus MiB-sized
# buffers and parts that hand the running state across the kernel
# threshold, too slow to be worth running unoptimised twice. (The store's golden frames and golden extent
# log run with the release store suite below.)
echo "==> cargo test -q --release -p dufs-net crc"
cargo test -q --release -p dufs-net crc

# The Dufs stack matrix (tests/sim_vs_live.rs) again, optimised: the mdtest
# op streams through one `Dufs` client and one thread per process over
# SoloCoord, {leader, spread} x {no cache, private, shared}, durable,
# {1, 2 shards} x {no cache, shared} and two mixed metadata+data cells, all
# on loopback TCP ensembles, every cell held to the simulated run's digest.
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
for run in "" "--live --durable --cache-shared" \
           "--live --data 700 --stripe 256 --zipf 0.9"; do
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

# Every experiment with a smoke gate, reduced: the 4-target parallel-read
# pass keeps all 4 file-backed targets in service at once, an exact count
# (data); 1-vs-2-shard simulated runs
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
# per seed and every `ServerOut` of the coordination server (and every
# `ZabAction` of the peer under it), every client request and every CPU
# charge is an event in it, so ten of the simulated tables regenerated at
# paper scale must come out byte-identical to the committed files. fig08
# and groupcommit add the larger ensembles and the `max_batch > 1` path;
# fig09, fig10, headline, shared_dir and shards run the DUFS, native and
# sharded clients. A diff here is a change in what the simulator emits or
# in what order, not noise.
sim_tables="fig07 fig08 fig09 fig10 headline zab observers shared_dir groupcommit shards"
echo "==> FULL=1 dufs-bench $sim_tables (must reproduce the committed tables)"
for e in $sim_tables; do
    FULL=1 cargo run --release -q -p dufs-bench -- "$e" >/dev/null
done
if ! git diff --exit-code results/fig07_zk_throughput.txt results/fig08_zkservers.txt \
    results/fig09_backends.txt results/fig10_lustre_pvfs.txt results/table_headline.txt \
    results/bench_zab.txt results/bench_observers.txt results/bench_shared_dir.txt \
    results/BENCH_groupcommit.json results/BENCH_shards.json >&2; then
    echo "FAIL: the simulator's outputs moved (diff above)" >&2
    exit 1
fi

# Loopback transport sweep (gates the depth-K pipelining gain and the flat
# thread count over the full 1/100/1k/10k connection-count axis). It runs at
# quick scale, so it writes its report into a scratch directory's results/,
# never over the committed paper-scale results/BENCH_net.json; a failed gate
# still exits non-zero and fails CI.
net_dir=$(mktemp -d "${TMPDIR:-/tmp}/dufs-ci-net.XXXXXX")
trap 'rm -rf "${TMPDIR:-/tmp}"/dufs-store-* "$net_dir"' EXIT
mkdir "$net_dir/results"
echo "==> dufs-bench net -> $net_dir/results/BENCH_net.json"
cargo build --release -q -p dufs-bench
(cd "$net_dir" && "$repo/target/release/dufs-bench" net)

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

# Nothing above may have rewritten a committed result.
if [ "$(results_sums)" != "$results_at_start" ]; then
    echo "FAIL: tracked files under results/ changed while CI ran:" >&2
    diff <(echo "$results_at_start") <(results_sums) >&2 || true
    exit 1
fi
echo "==> results/ unchanged since CI started"

echo "CI green."
