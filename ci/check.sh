#!/usr/bin/env bash
# Full local gate, identical to .github/workflows/ci.yml:
#   formatting, clippy and rustdoc (warnings are errors), tier-1 build +
#   tests, and the whole workspace test suite. Run from anywhere inside the
#   repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: broken and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

# e2ebench is its own workspace, so `cargo test --workspace` never builds
# it; test it here so a library API change cannot break the benchmark.
echo "==> benchmark package tests (e2ebench)"
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path e2ebench/Cargo.toml -q

echo "==> server integration smoke test (threaded)"
MODE=threaded ci/server_smoke.sh

echo "==> server integration smoke test (event loop)"
MODE=event-loop ci/server_smoke.sh

echo "==> chaos smoke test, threaded (faults, kill -9 restore, overload shed)"
MODE=threaded ci/chaos_smoke.sh

echo "==> chaos smoke test, event loop (same story on the reactor)"
MODE=event-loop ci/chaos_smoke.sh

echo "==> fleet aggregation smoke test (multi-tenant, two-level, kill -9 restore)"
ci/agg_smoke.sh

echo "==> fleet fault-isolation smoke test (kill one server mid-run, recover)"
ci/fleet_smoke.sh

# Fleet convergence smoke: a scaled-down `mhp-bench fleet` run. Gating via
# its own clean-run bound — a fault-free fleet that cannot converge within
# the cycle budget means the pull plane regressed.
echo "==> fleet convergence bench smoke"
cargo run --release -p mhp-bench --bin mhp-bench -- fleet \
  --servers 2 --sessions-per-server 1 --fault-rates 0,50 --events 10000 \
  --clean-budget-cycles 400 --out target/BENCH_fleet_smoke.json

# Perf smoke: a scaled-down hotpath run proves the bench harness still
# executes end to end. Non-gating — throughput numbers vary by machine, so
# a failure here warns instead of failing the gate; the shard-scaling
# efficiency (8-shard vs 1-shard, normalized by the cores actually
# available) is surfaced so a dispatch-plane regression is visible in the
# CI log even though it does not gate.
echo "==> hotpath bench smoke (non-gating)"
if cargo run --release -p mhp-bench --bin mhp-bench -- hotpath \
    --events 200000 --samples 1 --out target/BENCH_hotpath_smoke.json; then
  echo "hotpath scaling (non-gating): $(grep -o '"scaling": {[^}]*}' \
    target/BENCH_hotpath_smoke.json || echo 'n/a')"
else
  echo "warning: hotpath bench smoke failed (non-gating)" >&2
fi

# c10k smoke: thousands of concurrent live sessions on the event loop.
# Non-gating — the ceiling depends on local fd limits and memory.
echo "==> c10k smoke (non-gating)"
if ! ci/c10k_smoke.sh; then
  echo "warning: c10k smoke failed (non-gating)" >&2
fi

echo "ci/check.sh: all green"
