#!/usr/bin/env bash
# Offline CI for the gemm-ld workspace. Proofs live in `cargo test` (the
# tier-1 command runs every one of them, real-process legs included:
# crates/cli/tests/{usage,process,serve,corpus}_cli.rs); numbers come from
# `benchmark/` (run on parent and change for every PR). What is left here
# is what neither is the right place for:
#
#   1. rustfmt          — formatting is canonical
#   2. clippy           — all targets, warnings are errors
#   3. clippy (strict)  — no unwrap/expect in the lib targets of the
#                         panic-free crates; every `unsafe` block and impl
#                         in every member's lib carries a SAFETY argument
#   4. release build, workspace tests, the release-arithmetic legs, every
#                         example run in release, the one-formatter,
#                         per-window, ext-kernel, safe-fill, wire,
#                         hand-off, one-timer, engine-surface,
#                         one-schedule, one-CRC, one-arm and one-spawner
#                         guards, and the store-windows leg (`r2 --store`
#                         equals `r2 -i` at every budget; at 16 MiB the
#                         thresholded run is the staircase on one read)
#   5. schemas          — each published artifact (the `--profile=json`
#                         run report with its timeline, CPU profile, shard
#                         manifest, tile manifest, request log, both
#                         Prometheus scrapes)
#                         produced once by the release binary and held to
#                         its schema under schemas/ (needs python3)
#   6. perf smokes      — the flight recorder over `--profile` alone, and
#                         a never-firing `--timeout` over a plain run, must
#                         each cost <= 2% (warning; CI_STRICT_PERF=1 makes
#                         it fatal)
#   7. ldbench smoke    — the benchmark package builds and passes its own
#                         tests against this tree, and every workload's
#                         `--quick` run is correct with nothing failed (it
#                         catches a crate change that breaks the benchmark
#                         before the pipeline does)
#
# Usage: scripts/ci.sh        (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# The shipped lines of one Rust source file, each prefixed with its name:
# everything above its first `#[cfg(test)]`, comment lines aside. One file
# per call — awk's `exit` ends the whole run, not just the current file.
shipped() {
    awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ": " $0 }' "$1"
}

export CARGO_NET_OFFLINE=true
# The machine running CI may carry a cached `gemm-ld tune` profile or an
# LD_KERNEL override; every leg below must measure the committed defaults
# (the schemas leg tunes into a private path).
export LD_NO_CPU_PROFILE=1
unset LD_KERNEL

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
# The library code of the compute/I/O stack must be panic-free on the
# error path: no unwrap/expect outside tests (lib targets only — test
# modules and doc examples may unwrap freely). ld-trace is on the list as
# home of the JSON parser that reads hostile manifests and profiles.
run cargo clippy --no-deps -p ld-core -p ld-parallel -p ld-io -p ld-bitmat -p ld-serve -p ld-trace --offline -- \
    -D warnings -D clippy::unwrap-used -D clippy::expect-used
run cargo clippy --no-deps --workspace --lib --offline -- \
    -D warnings -D clippy::undocumented_unsafe_blocks
run cargo build --release --workspace --offline
run cargo test -q --workspace --offline
# The optimised kernels, not only the debug ones, are held to the oracle —
# and so is the pair-table writer, whose sweep a debug build only strides.
run cargo test -q --release --offline -p ld-kernels --test kernel_matrix
run cargo test -q --release --offline -p ld-io --lib fixed6
# ...and the ω split range, which a release build's unchecked subtraction
# once turned into a 2^64-iteration loop.
run cargo test -q --release --offline -p ld-omega --lib min_region
# Every example runs to completion in release: what an example asserts (a
# planted signal it must recover) is a claim about the engine.
for example in examples/*.rs; do
    run cargo run -q --release --offline --example "$(basename "$example" .rs)" >/dev/null
done
# `{v:.6}` is that writer's oracle and its fall-back, not a second
# formatter: one occurrence in shipped code (comments and test modules
# aside) across the crates that print the table.
echo "==> one six-decimal formatter in crates/{io,cli,serve}/src"
SIX=$(for f in crates/io/src/*.rs crates/cli/src/*.rs crates/serve/src/*.rs; do shipped "$f"; done \
    | grep -F ':.6}' || true)
if [ "$(printf '%s\n' "$SIX" | grep -c .)" != 1 ]; then
    echo "six-decimal formatter guard FAIL: expected exactly one ':.6}', found:" >&2
    printf '%s\n' "$SIX" >&2
    exit 1
fi
# A window is a reader of one banded run, not a run of its own: no shipped
# code applies the engine or a baseline to a sub-view per window
# (`try_stat_matrix(` / `r2_matrix(` on a `.view(` / `.subview(`; test
# oracles aside), and the pruning example calls the library's pruner
# instead of carrying one.
echo "==> no per-window engine call in crates/{omega,cli,assoc,core}/src"
PER_WINDOW=$(for f in crates/omega/src/*.rs crates/cli/src/*.rs crates/assoc/src/*.rs crates/core/src/*.rs; do
    shipped "$f"
done | grep -E '(r2_matrix|stat_matrix)\(.*\.(sub)?view\(' || true)
if [ -n "$PER_WINDOW" ] || grep -q 'fn prune' examples/ld_pruning.rs; then
    echo "per-window guard FAIL: an engine call on a sub-view, or a pruner in the example:" >&2
    printf '%s\n' "$PER_WINDOW" >&2
    grep -n 'fn prune' examples/ld_pruning.rs >&2 || true
    exit 1
fi
# The §VII statistics are epilogues on the engine's one driver, not count
# loops of their own: no shipped `ld-ext` code reaches for a kernel.
echo "==> no ld_kernels item in crates/ext/src (test modules aside)"
KERNELS=$(for f in crates/ext/src/*.rs; do shipped "$f"; done | grep -F 'ld_kernels' || true)
if [ -n "$KERNELS" ] || grep -q '^ld-kernels' crates/ext/Cargo.toml; then
    echo "ext kernel guard FAIL: a private count loop in ld-ext:" >&2
    printf '%s\n' "$KERNELS" >&2
    exit 1
fi
# A parallel fill splits its output into `&mut` parts for
# `ld_parallel::try_for_each_part` (a packed triangle via
# `LdMatrix::rows_mut`): the crates above ld-core write no `unsafe` and
# never spell the packed row offset themselves.
echo "==> no unsafe and no hand-rolled packed offset in crates/{baselines,ext,assoc,omega}/src"
UNSAFE=$(for f in crates/baselines/src/*.rs crates/ext/src/*.rs crates/assoc/src/*.rs crates/omega/src/*.rs; do
    shipped "$f"
done | grep -E 'unsafe|\(i \* i - i\) / 2' || true)
if [ -n "$UNSAFE" ]; then
    echo "safe-fill guard FAIL: unsafe code or a hand-rolled packed offset:" >&2
    printf '%s\n' "$UNSAFE" >&2
    exit 1
fi
# A served request costs its work, not a timer: both ends of an LDS1
# socket set TCP_NODELAY, and neither listener polls — `accept` blocks
# until a self-connect wakes it, and the waker blocks on the shutdown
# token. `inject_delay` (a test aid, zero in production), slept by a
# request that holds its permit in `server::serve_query`, is the one sleep
# in the daemon's shipped code, and the back-off after a failed `accept`
# its one timed park: each allowance is that one line, indentation
# included.
echo "==> no wire stall in crates/serve/src/{server,http,client}.rs"
for f in crates/serve/src/server.rs crates/serve/src/client.rs; do
    # no `grep -q`: an early exit would SIGPIPE awk and fail the pipe
    if ! shipped "$f" | grep -F 'set_nodelay(true)' >/dev/null; then
        echo "wire guard FAIL: no set_nodelay(true) in $f" >&2
        exit 1
    fi
done
STALL=$(for f in crates/serve/src/server.rs crates/serve/src/http.rs; do shipped "$f"; done \
    | grep -E 'set_nonblocking\(true\)|thread::sleep|park_timeout' \
    | grep -vxF 'crates/serve/src/server.rs:                 std::thread::sleep(shared.cfg.inject_delay);' \
    | grep -vxF 'crates/serve/src/server.rs:             Err(_) => std::thread::park_timeout(ACCEPT_RETRY),' \
    || true)
if [ -n "$STALL" ]; then
    echo "wire guard FAIL: a non-blocking listener, a sleep or a timed park in the daemon:" >&2
    printf '%s\n' "$STALL" >&2
    exit 1
fi
# A request runs on the thread that read it, behind one admission gate:
# no hand-off channel and no worker pool in the daemon's shipped code.
echo "==> no request hand-off in crates/serve/src"
HANDOFF=$(for f in crates/serve/src/*.rs; do shipped "$f"; done \
    | grep -E 'mpsc|worker_loop' || true)
if [ -n "$HANDOFF" ]; then
    echo "hand-off guard FAIL: a channel or a worker pool in the daemon:" >&2
    printf '%s\n' "$HANDOFF" >&2
    exit 1
fi
# One clock per layer, one report per run: the recorder span is the only
# layer timer, and the timeline is a section of the `--profile` report,
# not a report (flag, schema) of its own.
echo "==> one layer timer in crates/*/src, one run report everywhere"
TWO_CLOCKS=$(grep -rn 'Stopwatch' crates/*/src || true)
TWO_REPORTS=$(grep -rnE -- '--trace-(report)|trace_(report)\.schema' \
    crates src examples schemas scripts README.md DESIGN.md || true)
if [ -n "$TWO_CLOCKS$TWO_REPORTS" ]; then
    echo "one-timer guard FAIL: a second layer timer or a second run report:" >&2
    printf '%s\n' "$TWO_CLOCKS" "$TWO_REPORTS" >&2
    exit 1
fi

# One verb per sink on `LdEngine`: no panicking twin of `try_stat_matrix`,
# no locked twin of `try_stat_rows_with`, no tile visitor, and the plan of
# a thresholded table or listing is the engine's — no resident read,
# staircase planner or pair runner of its own, and no second formatter
# for a staircase row, outside `try_rows_in_order_with`. `ld-baselines`'
# two-argument `r2_matrix` kernels are other methods, not the engine's.
echo "==> one verb per sink on LdEngine in crates/*/src"
SURFACE=$(for f in crates/*/src/*.rs crates/*/src/*/*.rs; do shipped "$f"; done \
    | grep -E 'pub fn (stat_matrix|r2_matrix)\b|try_stat_rows_shared_with|try_for_each_tile_with|TileVisit|try_read_resident|r2_staircase|try_r2_pairs_with|push_kept_row' \
    | grep -vE '^crates/baselines/src/[a-z_]+\.rs: +pub fn r2_matrix\(&self, ' || true)
if [ -n "$SURFACE" ]; then
    echo "engine-surface guard FAIL: a deleted LdEngine verb, TileVisit or push_kept_row is back:" >&2
    printf '%s\n' "$SURFACE" >&2
    exit 1
fi

# One slab per claim on one loop body: no knob groups slabs into claims,
# and nothing measures a claim against a static split the scheduler does
# not have.
echo "==> one schedule in crates/*/src"
SCHEDULE=$(find crates/*/src -name '*.rs' | sort | while read -r f; do shipped "$f"; done \
    | grep -E 'chunk_slabs|chunk-slabs|chunk_slab_count|scheduler_grain|is_steal|StealCount|steal_count|StealLatency|steal_latency' \
    || true)
if [ -n "$SCHEDULE" ]; then
    echo "one-schedule guard FAIL: a scheduler-chunk knob or steal accounting is back:" >&2
    printf '%s\n' "$SCHEDULE" >&2
    exit 1
fi

# One checksum: every guarded file (chunks, checkpoints, shard files,
# sealed JSON) goes through `ld_trace::json::crc32`, so the CRC-32
# polynomial is spelled once in shipped code.
echo "==> one CRC-32 in crates/*/src"
CRCS=$(find crates/*/src -name '*.rs' | sort | while read -r f; do shipped "$f"; done \
    | grep -iE '0xedb8_?8320' || true)
if [ "$(printf '%s\n' "$CRCS" | grep -c .)" -ne 1 ]; then
    echo "one-CRC guard FAIL: expected the CRC-32 polynomial once, found:" >&2
    printf '%s\n' "$CRCS" >&2
    exit 1
fi

# One arm: a store run is the memory arm over windows sized by its
# memory budget, slab height, thread count and chunk size — no CLI flag
# and no environment variable names the one window or a window size.
echo "==> one arm decision in crates/*/src"
ARM=$(find crates/*/src -name '*.rs' | sort | while read -r f; do shipped "$f"; done \
    | grep -E -- '"(--)?([a-z]+-)*resident(-[a-z]+)*"|"[A-Z_]*RESIDENT[A-Z_]*"|"(--)?([a-z]+-)*(rows?|cols?|columns?|chunks?|slabs?|store)-windows?(-[a-z]+)*"|"(--)?([a-z]+-)*windows?-(rows|cols|columns|chunks|slabs|size|bytes|mb)(-[a-z]+)*"|"[A-Z_]*WINDOW[A-Z_]*"' \
    || true)
if [ -n "$ARM" ]; then
    echo "one-arm guard FAIL: a flag or environment variable selects the one window or a window size:" >&2
    printf '%s\n' "$ARM" >&2
    exit 1
fi

# One thread team: every compute thread is a worker of `ld-parallel`'s
# one claim loop. The kernels hand their row blocks to it and the engine
# its window passes, and neither starts a thread of its own (the TSC
# calibration's `sleep` starts none); `ld-parallel` starts its workers in
# exactly one `std::thread::scope`.
echo "==> one spawner: no thread started in crates/{kernels,core}/src, one scope in crates/parallel/src"
KTHREADS=$(find crates/kernels/src crates/core/src -name '*.rs' | sort \
    | while read -r f; do shipped "$f"; done \
    | grep -E 'thread::(scope|spawn|Builder)' || true)
PTHREADS=$(find crates/parallel/src -name '*.rs' | sort | while read -r f; do shipped "$f"; done \
    | grep -E 'thread::(scope|spawn|Builder)' || true)
if [ -n "$KTHREADS" ] || [ "$(printf '%s\n' "$PTHREADS" | grep -c .)" -ne 1 ] \
    || ! printf '%s\n' "$PTHREADS" | grep -qF 'std::thread::scope'; then
    echo "one-spawner guard FAIL: a thread started in ld-kernels or ld-core, or not exactly one scope in ld-parallel:" >&2
    printf '%s\n' "$KTHREADS" "$PTHREADS" >&2
    exit 1
fi

BIN=target/release/gemm-ld
OUT=target/ci
rm -rf "$OUT"
mkdir -p "$OUT"

# One data mover: a store run is the memory arm over windows sized to its
# budget, so its table is the in-memory run's at every budget and thread
# count — the smallest windows (no budget), windows under a binding budget
# (4 MiB holds the 2 MB panel only at one thread) and the one window
# (16 MiB). At 16 MiB the thresholded run reads the store once into memory
# and takes the staircase: its counters must say so (fewer values
# transformed than the triangle's n(n+1)/2, each of the 32 chunks read
# once), so a silent fall-back to the dense grid fails here.
echo "==> store windows: r2 --store equals r2 -i at every budget and thread count"
WSIM=$OUT/windows.ms
run "$BIN" simulate --samples 8192 --snps 2000 --seed 7 -o "$WSIM"
run "$BIN" import -i "$WSIM" --store "$OUT/wstore" --chunk-snps 64
counter() { sed -n "s/.*\"$1\": *\([0-9]*\).*/\1/p" "$OUT/w-prof.json" | head -n 1; }
for T in 1 2 7; do
    "$BIN" r2 -i "$WSIM" --threads "$T" --min-r2 0.5 -o "$OUT/w-mem.tsv" 2>/dev/null
    for MB in "" 4 16; do
        "$BIN" r2 --store "$OUT/wstore" --threads "$T" --min-r2 0.5 \
            ${MB:+--memory-budget-mb "$MB"} -o "$OUT/w-store.tsv" \
            --profile=json --profile-out "$OUT/w-prof.json" 2>/dev/null
        if ! cmp -s "$OUT/w-mem.tsv" "$OUT/w-store.tsv"; then
            echo "store-windows FAIL: --threads $T, budget ${MB:-none} MiB: the table differs from r2 -i" >&2
            exit 1
        fi
        if [ "$MB" = 16 ] && { [ "$(counter pairs_transformed)" -ge $((2000 * 2001 / 2)) ] \
            || [ "$(counter chunks_read)" -ne 32 ]; }; then
            echo "store-windows FAIL: --threads $T, 16 MiB: pairs_transformed $(counter pairs_transformed)," \
                "chunks_read $(counter chunks_read): not the staircase on one read of the store" >&2
            exit 1
        fi
    done
done

# Schemas leg: every document another tool may parse is produced once, by
# the shipped binary, and validated against its committed schema. What the
# documents *say* (zero drops, retried shards, lifecycle order, agreeing
# scrapes) is asserted by the Rust suites; this leg pins their shape.
echo "==> schemas: every published artifact against schemas/"
if ! command -v python3 >/dev/null 2>&1; then
    echo "    python3 unavailable; schemas leg skipped"
else
    validate() { run python3 scripts/validate_metrics.py "schemas/$1.schema.json" "$2"; }
    SIM=$OUT/panel.ms
    run "$BIN" simulate --samples 400 --snps 300 --seed 42 -o "$SIM"
    "$BIN" r2 -i "$SIM" --threads 7 --profile=json --profile-out "$OUT/metrics.json" \
        --trace-out "$OUT/trace.json" -o "$OUT/panel.tsv" 2>/dev/null
    validate metrics "$OUT/metrics.json"
    run env LD_NO_CPU_PROFILE=0 LD_CPU_PROFILE="$OUT/cpu-profile.json" \
        "$BIN" tune --quick --threads 2 2>/dev/null
    validate cpu_profile "$OUT/cpu-profile.json"
    run "$BIN" run-sharded -i "$SIM" -o "$OUT/sharded.tsv" --shards 2 --threads 2 \
        --work-dir "$OUT/shards" 2>/dev/null
    validate shard_manifest "$OUT/shards/manifest.json"
    run "$BIN" import -i "$SIM" --store "$OUT/store" --chunk-snps 64
    validate tile_manifest "$OUT/store/manifest.json"

    # A daemon with the whole telemetry plane on, a little real traffic,
    # then the request log and both expositions.
    "$BIN" serve bench="$SIM" --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0 \
        --request-log "$OUT/requests.jsonl" --preload \
        >"$OUT/serve.out" 2>"$OUT/serve.err" &
    SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
    for _ in $(seq 1 100); do
        grep -q "^metrics on " "$OUT/serve.out" 2>/dev/null && break
        sleep 0.1
    done
    ADDR=$(sed -n 's/^listening on //p' "$OUT/serve.out")
    MADDR=$(sed -n 's/^metrics on //p' "$OUT/serve.out")
    if [ -z "$ADDR" ] || [ -z "$MADDR" ]; then
        echo "schemas FAIL: daemon did not announce both addresses:" >&2
        cat "$OUT/serve.out" "$OUT/serve.err" >&2
        exit 1
    fi
    python3 - "$ADDR" "$MADDR" "$OUT/http.prom" <<'PYEOF'
import http.client, socket, struct, sys

def lds1(addr, payload):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as s:
        s.sendall(struct.pack("<I", len(payload)) + payload)
        (n,) = struct.unpack("<I", s.recv(4, socket.MSG_WAITALL))
        return s.recv(n, socket.MSG_WAITALL)

name = struct.pack("<H", 5) + b"bench"
for j in range(1, 40):  # pair queries: opcode 1, stat 0 (r2), i, j, panel
    reply = lds1(sys.argv[1], b"LDS1\x01\x00" + struct.pack("<II", 0, j) + name)
    if reply[:5] != b"LDS1\x00":
        sys.exit(f"schemas FAIL: pair (0,{j}) answered {reply[:5]!r}")
# one region query: opcode 2, rows [0, 50), min_r2 0.2; one unknown panel
lds1(sys.argv[1], b"LDS1\x02\x00" + struct.pack("<IId", 0, 50, 0.2) + name)
lds1(sys.argv[1], b"LDS1\x01\x00" + struct.pack("<IIH", 0, 1, 4) + b"nope")
host, port = sys.argv[2].rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=5)
conn.request("GET", "/metrics")
resp = conn.getresponse()
if resp.status != 200 or "version=0.0.4" not in (resp.getheader("Content-Type") or ""):
    sys.exit(f"schemas FAIL: GET /metrics -> {resp.status} {resp.getheader('Content-Type')!r}")
open(sys.argv[3], "w").write(resp.read().decode())
PYEOF
    "$BIN" monitor "$ADDR" --raw >"$OUT/opcode.prom"
    kill -INT "$SERVE_PID"
    wait "$SERVE_PID"
    trap - EXIT
    run python3 scripts/validate_prometheus.py "$OUT/http.prom"
    run python3 scripts/validate_prometheus.py "$OUT/opcode.prom"
    python3 - "$OUT/requests.jsonl" <<'PYEOF'
import json, sys

sys.path.insert(0, "scripts")
from validate_metrics import validate

schema = json.load(open("schemas/request_log.schema.json"))
n = terminal = 0
for n, line in enumerate(open(sys.argv[1]), 1):
    event = json.loads(line)
    errs = validate(event, schema)
    if errs:
        sys.exit(f"schemas FAIL: request log line {n}: " + "; ".join(errs))
    if event["event"] not in ("shed", "timeout", "finish"):
        continue
    # a terminal event is logged after the reply is written and splits
    # its first-byte-to-last-byte total into disjoint stages
    terminal += 1
    stages = ("read_ns", "queue_ns", "service_ns", "write_ns")
    if not all(k in event for k in ("read_ns", "write_ns", "total_ns")):
        sys.exit(f"schemas FAIL: request log line {n}: terminal event without its stages")
    if sum(event.get(k, 0) for k in stages) > event["total_ns"]:
        sys.exit(f"schemas FAIL: request log line {n}: stages exceed total_ns")
if n < 80 or terminal < 42:
    sys.exit(f"schemas FAIL: {n} request-log lines, {terminal} terminal, after 42 requests")
print(f"    {sys.argv[1]}: {n} lines valid against schemas/request_log.schema.json")
PYEOF
fi

# Perf smokes. Timing in CI is noisy, so a violation warns unless
# CI_STRICT_PERF=1. Best-of-5 of the wall the run itself reports, which is
# printed at 1 ms resolution — the panel is sized so that 2% is visible.
PERF_SIM=$OUT/perf.ms
run "$BIN" simulate --samples 500 --snps 6000 --seed 9 -o "$PERF_SIM"
best_wall() {
    local best="" t
    for _ in 1 2 3 4 5; do
        t=$("$BIN" r2 -i "$PERF_SIM" --threads 2 "$@" 2>&1 >/dev/null \
            | sed -n 's/.* in \([0-9.]*\)s .*/\1/p')
        if [ -z "$best" ] || awk -v a="$t" -v b="$best" 'BEGIN{exit !(a<b)}'; then
            best=$t
        fi
    done
    echo "$best"
}
# smoke NAME BASE_LABEL BASE_SECS OVER_LABEL OVER_SECS
smoke() {
    echo "    best-of-5 wall: $2 ${3}s, $4 ${5}s"
    if awk -v over="$5" -v base="$3" 'BEGIN{exit !(over > base * 1.02)}'; then
        echo "    WARNING: $1 costs > 2% (noise or regression)"
        if [ "${CI_STRICT_PERF:-0}" = "1" ]; then
            exit 1
        fi
    fi
}

# Span recording is a handful of relaxed atomic stores per slab.
echo "==> recorder-overhead smoke: --trace-out vs --profile alone"
PROF_SECS=$(best_wall --profile=json --profile-out "$OUT/perf-prof.json")
TRACE_SECS=$(best_wall --profile=json --profile-out "$OUT/perf-prof.json" \
    --trace-out "$OUT/perf-trace.json")
smoke "the recorder" "profile" "$PROF_SECS" "profile+trace" "$TRACE_SECS"

# Cancellation and deadline polling happen once per row slab, never inside
# the tile loops, so a deadline that never fires must be free.
echo "==> interruption smoke: deadline-carrying vs plain wall time"
PLAIN_SECS=$(best_wall)
TOKEN_SECS=$(best_wall --timeout 3600)
smoke "a never-firing deadline" "plain" "$PLAIN_SECS" "with --timeout 3600" "$TOKEN_SECS"

# ldbench smoke: the judge must build and agree that the tree is correct.
echo "==> ldbench smoke: benchmark tests + every workload --quick"
run cargo test -q --offline --manifest-path benchmark/Cargo.toml
quick() {
    local last
    last=$(bash benchmark/run.sh "$@" --seed 1 --seconds 2 --quick | tail -n 1)
    case "$last" in
        *'"correct": true'*'"failed": 0'*) echo "    $*: correct, 0 failed" ;;
        *)
            echo "ldbench smoke FAIL: $*: $last" >&2
            exit 1
            ;;
    esac
}
for W in r2_dense_pairs r2_deep_thresh r2_lowk_top store_stream \
    serve_connect_pair serve_persist_region; do
    quick --workload "$W"
done
quick --workload store_stream --trace 1

echo "==> CI green"
