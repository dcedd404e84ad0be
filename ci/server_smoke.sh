#!/usr/bin/env bash
# Server integration smoke test: boot mhp-server on an ephemeral port, run
# the end-to-end equivalence check (streamed snapshots + live top-k must
# match an offline ShardedEngine run over the pinned workload), hit it with
# a concurrent loadgen, scrape the Prometheus metrics query, fetch the
# request-trace stream, and shut it down gracefully. Fails on any protocol
# error, any mismatch, a missing or zero core metric, a traceless or
# stage-incomplete trace stream, or an unclean shutdown.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p mhp-server

log="$(mktemp)"
target/release/mhp-server --addr 127.0.0.1:0 >"$log" 2>&1 &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true; rm -f "$log"' EXIT

addr=""
for _ in $(seq 50); do
  addr="$(sed -n 's/^listening on //p' "$log")"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "server_smoke: server never came up" >&2
  cat "$log" >&2
  exit 1
fi
echo "==> server up on $addr"

echo "==> verify: multi-hash, 1 shard (exact vs offline engine)"
target/release/mhp-client verify --addr "$addr" \
  --stream gcc:value:42 --events 50000 --profiler multi-hash --shards 1

echo "==> verify: perfect, 4 shards (exact vs offline engine)"
target/release/mhp-client verify --addr "$addr" \
  --stream li:value:7 --events 30000 --profiler perfect --shards 4

echo "==> loadgen: 8 concurrent sessions"
target/release/mhp-client loadgen --addr "$addr" --sessions 8 --events 20000

echo "==> metrics: scrape and sanity-check the Prometheus exposition"
metrics="$(target/release/mhp-client query --addr "$addr" --op metrics)"
for name in server_requests_total server_events_ingested_total \
            engine_events_total sketch_promotions_total; do
  value="$(printf '%s\n' "$metrics" | awk -v n="$name" '$1 == n { print $2 }')"
  if [ -z "$value" ]; then
    echo "server_smoke: metric $name missing from exposition" >&2
    exit 1
  fi
  if [ "$value" -eq 0 ] 2>/dev/null; then
    echo "server_smoke: metric $name is zero after traffic" >&2
    exit 1
  fi
done
printf '%s\n' "$metrics" | grep -q '^# TYPE server_request_latency_us histogram$' || {
  echo "server_smoke: latency histogram missing from exposition" >&2
  exit 1
}

echo "==> traces: stage-attributed request traces after traffic"
traces="$(target/release/mhp-client traces --addr "$addr")"
trace_lines="$(printf '%s\n' "$traces" | grep -c '"type":"trace"' || true)"
if [ "$trace_lines" -eq 0 ]; then
  echo "server_smoke: no sampled traces after traffic" >&2
  printf '%s\n' "$traces" >&2
  exit 1
fi
first_trace="$(printf '%s\n' "$traces" | grep -m1 '"type":"trace"')"
for stage in admission_wait frame_decode dispatch ingest reply_write; do
  printf '%s\n' "$traces" | grep -q "\"stage\":\"$stage\"" || {
    echo "server_smoke: stage summary $stage missing from traces" >&2
    exit 1
  }
  printf '%s\n' "$first_trace" | grep -q "\"$stage\":" || {
    echo "server_smoke: sampled trace missing stage field $stage" >&2
    exit 1
  }
  printf '%s\n' "$metrics" | grep -q "^# TYPE server_stage_${stage}_us histogram$" || {
    echo "server_smoke: server_stage_${stage}_us histogram missing from exposition" >&2
    exit 1
  }
done
echo "    $trace_lines sampled trace(s), all five stages attributed"

echo "==> graceful shutdown"
target/release/mhp-client shutdown --addr "$addr"
wait "$server_pid"
grep -q "shut down cleanly" "$log" || {
  echo "server_smoke: server did not shut down cleanly" >&2
  cat "$log" >&2
  exit 1
}

echo "ci/server_smoke.sh: all green"
