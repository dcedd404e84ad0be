#!/usr/bin/env bash
# c10k smoke test: boot mhp-server with --max-conns raised above SESSIONS
# and hold thousands of concurrent live sessions against it from the
# multiplexed load generator — a small active subset streaming ingest, the
# rest idling attached, the fleet-realistic mix. The server holds each
# connection on its own handler thread. Fails if any session fails to
# open, if the active streams do not complete, or if the server's own
# session counter disagrees. SESSIONS (default 2048) and ACTIVE (default
# 16) scale the run.
#
# CI runs this non-gating: the concurrency ceiling depends on the
# runner's fd, thread and memory limits, so a failure warns rather than
# gates.
set -euo pipefail
cd "$(dirname "$0")/.."

SESSIONS="${SESSIONS:-2048}"
ACTIVE="${ACTIVE:-16}"

# Each session is one client fd plus one server fd; leave generous slack.
need_fds=$((SESSIONS * 2 + 256))
ulimit -n "$need_fds" 2>/dev/null || {
  have="$(ulimit -n)"
  echo "c10k_smoke: cannot raise fd limit to $need_fds (have $have)" >&2
  [ "$have" -ge "$need_fds" ] || exit 1
}

cargo build -q --release -p mhp-server

log="$(mktemp)"
target/release/mhp-server --addr 127.0.0.1:0 --max-conns $((SESSIONS + 64)) >"$log" 2>&1 &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true; rm -f "$log"' EXIT

addr=""
for _ in $(seq 50); do
  addr="$(sed -n 's/^listening on //p' "$log")"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "c10k_smoke: server never came up" >&2
  cat "$log" >&2
  exit 1
fi
echo "==> server up on $addr"

echo "==> holding $SESSIONS concurrent sessions ($ACTIVE active streams)"
target/release/mhp-client loadgen --addr "$addr" \
  --sessions "$SESSIONS" --active "$ACTIVE" --events 20000

echo "==> server-side check: every session registered"
metrics="$(target/release/mhp-client query --addr "$addr" --op metrics)"
opened="$(printf '%s\n' "$metrics" | awk '$1 == "server_sessions_opened_total" { print $2 }')"
if [ -z "$opened" ] || [ "$opened" -lt "$SESSIONS" ]; then
  echo "c10k_smoke: server counted ${opened:-0} opened sessions, expected >= $SESSIONS" >&2
  exit 1
fi

echo "==> graceful shutdown"
target/release/mhp-client shutdown --addr "$addr"
wait "$server_pid"
grep -q "shut down cleanly" "$log" || {
  echo "c10k_smoke: server did not shut down cleanly" >&2
  cat "$log" >&2
  exit 1
}

echo "ci/c10k_smoke.sh: all green ($SESSIONS concurrent sessions)"
