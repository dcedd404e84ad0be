#!/usr/bin/env bash
# Chaos smoke test: boot mhp-server with a seeded deterministic fault plan
# (dropped connections, torn acks, corrupted chunks, stalls), stream through
# the reconnecting client, and demand bit-identical results anyway. Then
# prove worker-panic containment (typed client error, server survives),
# and the full crash story: kill -9 a checkpointing server, restart it from
# the same state directory, confirm the session was restored and that an
# overloaded server sheds ingest with a typed error. Scrapes the durability
# counters (restore/shed) from the Prometheus exposition at the end.
#
# MODE=threaded (default) or MODE=event-loop selects the front end; the
# fault-recovery and durability story must hold identically in both.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${MODE:-threaded}"
mode_flags=()
if [ "$MODE" = "event-loop" ]; then
  mode_flags+=(--event-loop)
elif [ "$MODE" != "threaded" ]; then
  echo "chaos_smoke: unknown MODE=$MODE (use threaded or event-loop)" >&2
  exit 1
fi
echo "==> mode: $MODE"

cargo build -q --release -p mhp-server

state="$(mktemp -d)"
log="$(mktemp)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$state" "$log"
}
trap cleanup EXIT

start_server() {
  : >"$log"
  target/release/mhp-server "$@" "${mode_flags[@]}" >"$log" 2>&1 &
  server_pid=$!
  addr=""
  for _ in $(seq 50); do
    addr="$(sed -n 's/^listening on //p' "$log")"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "chaos_smoke: server never came up" >&2
    cat "$log" >&2
    exit 1
  fi
}

stop_server() {
  target/release/mhp-client shutdown --addr "$addr" >/dev/null
  wait "$server_pid"
  server_pid=""
}

echo "==> phase 1: retryable faults, bit-identical verify through retries"
start_server --addr 127.0.0.1:0 \
  --fault-plan conn-drop@4,truncate-frame@7,corrupt-chunk@3,slow-consumer@5 \
  --fault-seed 42
out="$(target/release/mhp-client verify --addr "$addr" \
  --stream gcc:value:42 --events 50000 --retries 5)"
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q "verify ok" || {
  echo "chaos_smoke: verify did not pass under faults" >&2
  exit 1
}
printf '%s\n' "$out" | grep -q "recovered from" || {
  echo "chaos_smoke: no fault was actually recovered from" >&2
  exit 1
}
stop_server

echo "==> phase 2: worker panic is contained as a typed client error"
start_server --addr 127.0.0.1:0 --fault-plan worker-panic@5000
if target/release/mhp-client record-and-send --addr "$addr" \
  --session chaos-panic --events 20000 --retries 3 2>/dev/null; then
  echo "chaos_smoke: stream into a panicked worker unexpectedly succeeded" >&2
  exit 1
fi
kill -0 "$server_pid" 2>/dev/null || {
  echo "chaos_smoke: worker panic took the whole server down" >&2
  cat "$log" >&2
  exit 1
}
# Fresh sessions still verify cleanly on the same server.
target/release/mhp-client verify --addr "$addr" \
  --stream li:value:7 --events 20000 >/dev/null
stop_server
# The same panic behind a stalled worker: every ack returns before the
# worker reaches event 5000, so only record-and-send's closing barrier can
# report the panic, and it must, on every run.
start_server --addr 127.0.0.1:0 --fault-plan worker-stall@1,worker-panic@5000
if target/release/mhp-client record-and-send --addr "$addr" \
  --session chaos-lagging-panic --events 20000 --retries 3 2>/dev/null; then
  echo "chaos_smoke: stream into a lagging panicked worker unexpectedly succeeded" >&2
  exit 1
fi
kill -0 "$server_pid" 2>/dev/null || {
  echo "chaos_smoke: lagging worker panic took the whole server down" >&2
  cat "$log" >&2
  exit 1
}
stop_server

echo "==> phase 3: kill -9, restart from checkpoints, shed under overload"
start_server --addr 127.0.0.1:0 --state-dir "$state" --checkpoint-interval-ms 100
target/release/mhp-client record-and-send --addr "$addr" \
  --session durable --events 30000 --retries 5 >/dev/null
sleep 0.5
ls "$state"/*.snap >/dev/null 2>&1 || {
  echo "chaos_smoke: no checkpoint file appeared in --state-dir" >&2
  exit 1
}
# The braces keep bash's asynchronous "Killed" job notice out of the log.
{ kill -9 "$server_pid" && wait "$server_pid"; } 2>/dev/null || true
server_pid=""

start_server --addr 127.0.0.1:0 --state-dir "$state" --overload-conns 0
grep -q "restored 1 session(s)" "$log" || {
  echo "chaos_smoke: restarted server did not restore the session" >&2
  cat "$log" >&2
  exit 1
}
# The restored session remembers its resume point (30000 events / 4096 = 8 chunks).
resume="$(target/release/mhp-client query --addr "$addr" --session durable --op resume)"
[ "$resume" = "last_seq 8" ] || {
  echo "chaos_smoke: unexpected resume point after restore: $resume" >&2
  exit 1
}
# --overload-conns 0 sheds every ingest: the client must get the typed error.
if target/release/mhp-client record-and-send --addr "$addr" \
  --session shed-probe --events 5000 2>"$log.err"; then
  echo "chaos_smoke: ingest was not shed under overload" >&2
  exit 1
fi
grep -qi "overloaded" "$log.err" || {
  echo "chaos_smoke: shed error did not carry the overloaded code" >&2
  cat "$log.err" >&2
  exit 1
}
rm -f "$log.err"

echo "==> durability counters in the Prometheus exposition"
metrics="$(target/release/mhp-client query --addr "$addr" --op metrics)"
for name in server_restore_total server_shed_total; do
  value="$(printf '%s\n' "$metrics" | awk -v n="$name" '$1 == n { print $2 }')"
  if [ -z "$value" ] || [ "$value" -eq 0 ] 2>/dev/null; then
    echo "chaos_smoke: metric $name missing or zero after chaos" >&2
    exit 1
  fi
done
stop_server

echo "ci/chaos_smoke.sh: all green"
