#!/usr/bin/env bash
# Local CI: formatting, lints, release build, tests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (flowtree* packages, broken intra-doc links are errors)"
# Only the workspace's own crates: vendor/ stand-ins are not held to this.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --offline --no-deps -p 'flowtree*'

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
# perfbench is its own workspace, so the workspace build above skips it; build
# it here so a public-API change that breaks the benchmark fails CI.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> release gates (JSON submit decode <= 3x binary; quiet-connection round trip median < 2 ms)"
# Both codecs are timed in one process on the same host, so the ratio
# tracks the decoder rather than the machine's speed. The latency gate
# times 20 watermark round trips, each after 250 ms of silence.
cargo test --release -q -p flowtree-gateway -- --ignored

echo "==> algo_a_tour example (release-mode Algorithm A / MC path and its asserts)"
cargo run --release -q --example algo_a_tour >/dev/null

echo "==> bench regression gate (--quick --check vs committed baseline)"
cargo run --release -p flowtree-cli -- bench --quick --check BENCH_engine.json \
    -o /tmp/flowtree_bench_smoke.json >/dev/null
rm -f /tmp/flowtree_bench_smoke.json

echo "==> serve bench regression gate (--serve --quick --check vs committed baseline)"
cargo run --release -p flowtree-cli -- bench --serve --quick --check BENCH_serve.json \
    -o /tmp/flowtree_serve_bench_smoke.json >/dev/null
rm -f /tmp/flowtree_serve_bench_smoke.json

echo "==> gateway bench regression gate (--gateway --quick --check vs committed baseline)"
cargo run --release -p flowtree-cli -- bench --gateway --quick --check BENCH_gateway.json \
    -o /tmp/flowtree_gateway_bench_smoke.json >/dev/null
rm -f /tmp/flowtree_gateway_bench_smoke.json

echo "==> serve smoke (2 shards, fixed seed, bounded horizon, clean drain)"
SMOKE_STORE=$(mktemp -d)
cargo run --release -q -p flowtree-cli -- serve service --shards 2 --rate 1.0 \
    --scheduler fifo -m 4 --jobs 24 --seed 7 --horizon 100000 \
    --store "$SMOKE_STORE" >/dev/null
# The drained store records must parse back into a trend table.
cargo run --release -q -p flowtree-cli -- report --trend "$SMOKE_STORE" >/dev/null
rm -rf "$SMOKE_STORE"

echo "==> serve control-plane smoke (hot-swap under backpressure, balanced ledger)"
SWAP_STORE=$(mktemp -d)
SWAP_OUT=$(cargo run --release -q -p flowtree-cli -- serve service --shards 2 \
    --rate 2.0 --scheduler fifo -m 4 --jobs 48 --seed 11 --horizon 100000 \
    --queue-cap 2 --swap-at 5:lpf \
    --store "$SWAP_STORE")
# The drain table must show the applied swap on every shard, and the ingest
# ledger must account for every offered job.
echo "$SWAP_OUT" | grep -q 'fifo→lpf@' \
    || { echo "serve smoke: missing swap event in drain table"; exit 1; }
echo "$SWAP_OUT" | grep -q 'ingest: .*(balanced)' \
    || { echo "serve smoke: ingest ledger did not balance"; exit 1; }
# Swap-bearing records must parse back through trend tables and plots.
cargo run --release -q -p flowtree-cli -- report --trend "$SWAP_STORE" --plot \
    | grep -q 'ratio trend' \
    || { echo "serve smoke: trend plot missing"; exit 1; }
rm -rf "$SWAP_STORE"

echo "==> serve shedding smoke (drop policy on one-slot queues, balanced ledger)"
# Dropped jobs must land in the ledger: delivered + dropped == offered.
cargo run --release -q -p flowtree-cli -- serve service --shards 2 \
    --rate 2.0 --scheduler fifo -m 4 --jobs 48 --seed 11 --horizon 100000 \
    --queue-cap 1 --policy drop \
    | grep -q 'ingest: .*(balanced)' \
    || { echo "serve drop smoke: ingest ledger did not balance"; exit 1; }

echo "==> telemetry smoke (mid-run scrape --check + flight recorder round-trip)"
TEL_STORE=$(mktemp -d)
TEL_ADDR=127.0.0.1:19187
cargo run --release -q -p flowtree-cli -- serve service --shards 2 --rate 2.0 \
    --scheduler fifo -m 4 --jobs 100000 --seed 7 --horizon 1000000000 \
    --swap-at 5:lpf --metrics-addr "$TEL_ADDR" --store "$TEL_STORE" \
    >/dev/null 2>&1 &
TEL_PID=$!
# Poll the live endpoint until one *consistent* scrape lands mid-run:
# `metrics --check` asserts the ingest ledger balances
# (delivered + dropped == offered) and that latency summaries are
# populated. Early refused connections and
# not-yet-populated summaries simply retry.
SCRAPED=0
for _ in $(seq 1 100); do
    if cargo run --release -q -p flowtree-cli -- metrics "$TEL_ADDR" --check \
        >/dev/null 2>&1; then
        SCRAPED=1
        break
    fi
    kill -0 "$TEL_PID" 2>/dev/null || break
    sleep 0.05
done
wait "$TEL_PID" || { echo "telemetry smoke: serve run failed"; exit 1; }
[ "$SCRAPED" = 1 ] \
    || { echo "telemetry smoke: no consistent mid-run scrape"; exit 1; }
# The drain dumped the flight recorder beside the store; it must render
# back through the report pipeline with a by-kind tally.
cargo run --release -q -p flowtree-cli -- report --flight "$TEL_STORE" \
    | grep -q 'by kind' \
    || { echo "telemetry smoke: flight recorder did not round-trip"; exit 1; }
rm -rf "$TEL_STORE"

echo "==> gateway smoke (remote replay == in-process serve, byte for byte)"
GW_STORE=$(mktemp -d)
GW_ADDR=127.0.0.1:19201
GW_TRACE=$(mktemp /tmp/flowtree_gw_trace.XXXXXX.json)
# One fixed-seed instance replayed twice: once through in-process serve,
# once over the wire through gateway+submit. The drained store records
# must be byte-for-byte identical — the network edge is transparent.
cargo run --release -q -p flowtree-cli -- gen service --jobs 24 --seed 7 \
    -o "$GW_TRACE" >/dev/null
cargo run --release -q -p flowtree-cli -- serve service --shards 2 --rate 1.0 \
    --scheduler fifo -m 4 --replay "$GW_TRACE" --horizon 100000 \
    --store "$GW_STORE/twin" --run-id smoke >/dev/null
cargo run --release -q -p flowtree-cli -- gateway service --addr "$GW_ADDR" \
    --shards 2 --scheduler fifo -m 4 --store "$GW_STORE/wire" --run-id smoke \
    >/dev/null 2>&1 &
GW_PID=$!
SUBMITTED=0
for _ in $(seq 1 100); do
    if cargo run --release -q -p flowtree-cli -- submit service \
        --addr "$GW_ADDR" --replay "$GW_TRACE" --batch 5 --drain \
        >/dev/null 2>&1; then
        SUBMITTED=1
        break
    fi
    kill -0 "$GW_PID" 2>/dev/null || break
    sleep 0.05
done
wait "$GW_PID" || { echo "gateway smoke: gateway run failed"; exit 1; }
[ "$SUBMITTED" = 1 ] || { echo "gateway smoke: submit never connected"; exit 1; }
cmp -s "$GW_STORE/twin/smoke.jsonl" "$GW_STORE/wire/smoke.jsonl" \
    || { echo "gateway smoke: store records differ from in-process serve"; exit 1; }
# The gateway's flight dump must show the network edge.
cargo run --release -q -p flowtree-cli -- report --flight "$GW_STORE/wire" \
    | grep -q 'conn-open' \
    || { echo "gateway smoke: no conn-open flight event"; exit 1; }
rm -rf "$GW_STORE" "$GW_TRACE"

echo "==> mixed-codec gateway smoke (json + binary clients split one replay, byte for byte)"
MX_STORE=$(mktemp -d)
MX_ADDR=127.0.0.1:19203
MX_TRACE=$(mktemp /tmp/flowtree_mx_trace.XXXXXX.json)
# One fixed-seed trace split across two clients on different codecs: a
# JSON client submits the first half, then a binary pipelined client the
# second. Arrival order matches the in-process twin, so the drained store
# must again be byte-for-byte identical.
cargo run --release -q -p flowtree-cli -- gen service --jobs 24 --seed 9 \
    -o "$MX_TRACE" >/dev/null
cargo run --release -q -p flowtree-cli -- serve service --shards 2 --rate 1.0 \
    --scheduler fifo -m 4 --replay "$MX_TRACE" --horizon 100000 \
    --store "$MX_STORE/twin" --run-id smoke >/dev/null
cargo run --release -q -p flowtree-cli -- gateway service --addr "$MX_ADDR" \
    --shards 2 --scheduler fifo -m 4 --store "$MX_STORE/wire" --run-id smoke \
    >/dev/null 2>&1 &
MX_PID=$!
MX_FIRST=0
for _ in $(seq 1 100); do
    if cargo run --release -q -p flowtree-cli -- submit service \
        --addr "$MX_ADDR" --replay "$MX_TRACE" --batch 5 --codec json \
        --take 12 >/dev/null 2>&1; then
        MX_FIRST=1
        break
    fi
    kill -0 "$MX_PID" 2>/dev/null || break
    sleep 0.05
done
[ "$MX_FIRST" = 1 ] || { echo "mixed-codec smoke: json client never connected"; exit 1; }
cargo run --release -q -p flowtree-cli -- submit service --addr "$MX_ADDR" \
    --replay "$MX_TRACE" --batch 5 --codec bin --window 8 --skip 12 --drain \
    >/dev/null \
    || { echo "mixed-codec smoke: binary client failed"; exit 1; }
wait "$MX_PID" || { echo "mixed-codec smoke: gateway run failed"; exit 1; }
cmp -s "$MX_STORE/twin/smoke.jsonl" "$MX_STORE/wire/smoke.jsonl" \
    || { echo "mixed-codec smoke: store records differ from in-process serve"; exit 1; }
rm -rf "$MX_STORE" "$MX_TRACE"

echo "==> store gc --dry-run over the committed store corpus"
cargo run --release -q -p flowtree-cli -- store gc results/store --dry-run >/dev/null

echo "==> report --trend over the committed store corpus"
cargo run --release -q -p flowtree-cli -- report --trend results/store --plot >/dev/null

echo "CI OK"
