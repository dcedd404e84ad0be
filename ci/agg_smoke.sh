#!/usr/bin/env bash
# Fleet aggregation smoke test: two mhp-servers with multi-tenant sessions,
# a child aggregator pulling both, and a parent aggregator stacked on the
# child. The parent's per-tenant global top-k must byte-match `mhp-agg
# offline` (the same engines run in-process, no network hops). Then the
# child is kill -9'd mid-fleet, new data lands while it is down, and the
# restarted child (same checkpoint file, same address) must re-converge on
# the updated offline answer without double-counting anything. Ends with
# the tenancy guardrails: session quotas reject with a labeled counter, and
# idle sessions evict under a memory budget and restore on the next attach.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p mhp-server -p mhp-agg

EVENTS=20000
INTERVAL=5000
TOPN=25

work="$(mktemp -d)"
pids=()
cleanup() {
  for pid in ${pids[@]+"${pids[@]}"}; do
    # The braces keep bash's asynchronous "Killed" notice off the console.
    { kill -9 "$pid" 2>/dev/null && wait "$pid"; } 2>/dev/null || true
  done
  rm -rf "$work"
}
trap cleanup EXIT

# start_proc LOG PREFIX CMD...: backgrounds CMD, scrapes "PREFIX<addr>" from
# its log, and leaves the resolved address in $addr and the pid in $last_pid.
start_proc() {
  local log="$work/$1" prefix="$2"
  shift 2
  : >"$log"
  "$@" >"$log" 2>&1 &
  last_pid=$!
  pids+=("$last_pid")
  addr=""
  for _ in $(seq 100); do
    addr="$(sed -n "s/^${prefix}//p" "$log" | head -n 1)"
    [ -n "$addr" ] && return 0
    sleep 0.1
  done
  echo "agg_smoke: $1 never reported an address" >&2
  cat "$log" >&2
  exit 1
}

ingest() { # addr session stream
  target/release/mhp-client record-and-send --addr "$1" --session "$2" \
    --stream "$3" --events "$EVENTS" --interval-len "$INTERVAL" >/dev/null
}

offline() { # out-file member...
  local out="$1"
  shift
  local flags=()
  for member in "$@"; do flags+=(--member "$member"); done
  target/release/mhp-agg offline "${flags[@]}" \
    --events "$EVENTS" --interval-len "$INTERVAL" --n "$TOPN" >"$out"
}

# Polls an aggregator's per-tenant top-k until it is byte-identical to the
# offline reference file, or fails loudly with the diff.
converge() { # addr expected-file label
  local addr="$1" expected="$2" label="$3" got="$work/got.txt"
  for _ in $(seq 100); do
    {
      target/release/mhp-agg query --addr "$addr" --op topk --tenant acme --n "$TOPN"
      target/release/mhp-agg query --addr "$addr" --op topk --tenant beta --n "$TOPN"
    } >"$got" 2>/dev/null || true
    cmp -s "$expected" "$got" && return 0
    sleep 0.2
  done
  echo "agg_smoke: $label never converged on the offline answer" >&2
  diff "$expected" "$got" >&2 || true
  exit 1
}

echo "==> phase 1: fleet up (2 servers -> child aggregator -> parent aggregator)"
start_proc server_a.log "listening on " target/release/mhp-server --addr 127.0.0.1:0
srv_a="$addr"
start_proc server_b.log "listening on " target/release/mhp-server --addr 127.0.0.1:0
srv_b="$addr"

ingest "$srv_a" acme/web gcc:value:11
ingest "$srv_b" acme/api gcc:value:22
ingest "$srv_a" beta/db li:value:33

listing="$(target/release/mhp-client query --addr "$srv_a" --op sessions)"
for name in acme/web beta/db; do
  printf '%s\n' "$listing" | grep -q "^$name " || {
    echo "agg_smoke: session $name missing from server listing:" >&2
    printf '%s\n' "$listing" >&2
    exit 1
  }
done

start_proc child.log "aggregating on " target/release/mhp-agg serve \
  --addr 127.0.0.1:0 --upstream "$srv_a" --upstream "$srv_b" \
  --pull-interval-ms 50 --state "$work/agg.snap"
child_addr="$addr"
child_pid="$last_pid"
start_proc parent.log "aggregating on " target/release/mhp-agg serve \
  --addr 127.0.0.1:0 --upstream "$child_addr" --pull-interval-ms 50
parent_addr="$addr"

echo "==> phase 2: parent top-k byte-matches the offline merge"
offline "$work/expected1.txt" \
  acme/web=gcc:value:11 acme/api=gcc:value:22 beta/db=li:value:33
converge "$parent_addr" "$work/expected1.txt" "parent"
# The child exports one cumulative session per tenant for its parent.
agg_sessions="$(target/release/mhp-agg query --addr "$child_addr" --op sessions)"
for tenant in acme beta; do
  printf '%s\n' "$agg_sessions" | grep -q "^$tenant/__cumulative__ " || {
    echo "agg_smoke: child does not export $tenant/__cumulative__:" >&2
    printf '%s\n' "$agg_sessions" >&2
    exit 1
  }
done
# The listing also carries per-upstream supervisor health; both of the
# child's upstreams are alive and closed-breaker right now.
healthy_upstreams="$(printf '%s\n' "$agg_sessions" |
  grep -c '^upstream .* healthy=1 phase=closed ')" || true
[ "$healthy_upstreams" -eq 2 ] || {
  echo "agg_smoke: expected 2 healthy upstreams in child listing:" >&2
  printf '%s\n' "$agg_sessions" >&2
  exit 1
}
# Checkpointing is on (state file set) and has seen zero write failures
# on the happy path.
ckpt_errors="$(target/release/mhp-agg query --addr "$child_addr" --op metrics |
  awk '$1 == "agg_checkpoint_errors_total" { print $2 }')"
[ "$ckpt_errors" = "0" ] || {
  echo "agg_smoke: agg_checkpoint_errors_total should be 0, got '$ckpt_errors'" >&2
  exit 1
}

echo "==> phase 3: kill -9 the child, land new data, restore from checkpoint"
# The child checkpoints on the first clock tick after a pull made
# progress, and phase 2 can converge through its memory within one tick,
# so wait for the first checkpoint before killing it.
ckpts=0
for _ in $(seq 100); do
  ckpts="$(target/release/mhp-agg query --addr "$child_addr" --op metrics |
    awk '$1 == "agg_checkpoints_total" { print $2 }')"
  [ "${ckpts:-0}" -gt 0 ] && break
  sleep 0.05
done
[ "${ckpts:-0}" -gt 0 ] || {
  echo "agg_smoke: child never wrote a checkpoint" >&2
  exit 1
}
# The braces keep bash's asynchronous "Killed" job notice out of the log.
{ kill -9 "$child_pid" && wait "$child_pid"; } 2>/dev/null || true
sleep 0.3 # let the parent record at least one failed pull
ingest "$srv_a" acme/extra gcc:value:55
start_proc child.log "aggregating on " target/release/mhp-agg serve \
  --addr "$child_addr" --upstream "$srv_a" --upstream "$srv_b" \
  --pull-interval-ms 50 --state "$work/agg.snap"
grep -q "restored checkpoint at epoch" "$work/child.log" || {
  echo "agg_smoke: restarted child did not restore its checkpoint" >&2
  cat "$work/child.log" >&2
  exit 1
}
offline "$work/expected2.txt" \
  acme/web=gcc:value:11 acme/api=gcc:value:22 beta/db=li:value:33 \
  acme/extra=gcc:value:55
converge "$parent_addr" "$work/expected2.txt" "restored fleet"
# The parent saw the outage and said so in its metrics (the counter is
# labeled per upstream; sum the family).
errors="$(target/release/mhp-agg query --addr "$parent_addr" --op metrics |
  awk '/^agg_pull_errors_total\{/ { sum += $2 } END { print sum + 0 }')"
if [ -z "$errors" ] || [ "$errors" -eq 0 ]; then
  echo "agg_smoke: parent never counted the dead upstream" >&2
  exit 1
fi

echo "==> phase 4: tenant session quota rejects with a labeled counter"
start_proc quota.log "listening on " target/release/mhp-server \
  --addr 127.0.0.1:0 --tenant-max-sessions 1
quota_addr="$addr"
target/release/mhp-client record-and-send --addr "$quota_addr" \
  --session acme/one --events 1000 >/dev/null
if target/release/mhp-client record-and-send --addr "$quota_addr" \
  --session acme/two --events 1000 >/dev/null 2>&1; then
  echo "agg_smoke: second session was admitted past the tenant quota" >&2
  exit 1
fi
target/release/mhp-client query --addr "$quota_addr" --op metrics |
  grep -q 'server_tenant_quota_rejections_total{tenant="acme"} 1' || {
  echo "agg_smoke: quota rejection counter missing from exposition" >&2
  exit 1
}
target/release/mhp-client shutdown --addr "$quota_addr" >/dev/null

echo "==> phase 5: idle sessions evict under a memory budget, restore on attach"
mkdir -p "$work/evict-state"
start_proc evict.log "listening on " target/release/mhp-server \
  --addr 127.0.0.1:0 --state-dir "$work/evict-state" --memory-budget 1
evict_addr="$addr"
target/release/mhp-client record-and-send --addr "$evict_addr" \
  --session acme/idle --events 12000 --interval-len "$INTERVAL" >/dev/null
evicted=""
for _ in $(seq 100); do
  if target/release/mhp-client query --addr "$evict_addr" --op metrics |
    grep -q 'server_tenant_evictions_total{tenant="acme"}'; then
    evicted=1
    break
  fi
  sleep 0.1
done
[ -n "$evicted" ] || {
  echo "agg_smoke: idle session was never evicted under a 1-byte budget" >&2
  exit 1
}
topk="$(target/release/mhp-client query --addr "$evict_addr" \
  --session acme/idle --op topk --n 5)"
[ -n "$topk" ] || {
  echo "agg_smoke: evicted session did not restore on attach" >&2
  exit 1
}
target/release/mhp-client shutdown --addr "$evict_addr" >/dev/null

echo "==> graceful fleet shutdown"
target/release/mhp-agg query --addr "$parent_addr" --op shutdown >/dev/null
target/release/mhp-agg query --addr "$child_addr" --op shutdown >/dev/null
target/release/mhp-client shutdown --addr "$srv_a" >/dev/null
target/release/mhp-client shutdown --addr "$srv_b" >/dev/null
grep -q "shut down cleanly" "$work/child.log" || sleep 0.5
grep -q "shut down cleanly" "$work/child.log" || {
  echo "agg_smoke: child aggregator did not shut down cleanly" >&2
  cat "$work/child.log" >&2
  exit 1
}

echo "ci/agg_smoke.sh: all green"
