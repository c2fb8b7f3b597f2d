#!/usr/bin/env bash
# Metric-engine benchmark baseline: builds the workspace in release
# mode and runs the machine-readable bench binary, writing
# BENCH_metrics.json at the repo root. Progress goes to stderr; the
# JSON document is everything the binary prints on stdout.
#
# The file records ns/op for each Csr kernel at three graph scales and
# 1 vs 8 workers, the legacy DiGraph-walk baselines the kernels
# replaced, the magellan-traced ingest throughput (reports/sec through
# one shard's sans-I/O admission path), the wall time of one
# magellan-lint gate pass, end-to-end study latency per sample instant, and
# host_cores (thread scaling is only physically possible when the
# measuring box has >1 core).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release -p magellan-bench -p magellan-lint" >&2
# The lint binary is benched too (gate wall time). Built as
# a separate invocation: `--bin bench_metrics` filters the target list
# across *every* selected package, so a combined command would skip
# the magellan-lint binary and time whatever stale build was lying
# around.
cargo build --release -p magellan-bench --bin bench_metrics
cargo build --release -p magellan-lint

echo "==> running bench_metrics (writes BENCH_metrics.json)" >&2
# Stage into a temp file and rename so an interrupted run never leaves
# a truncated BENCH_metrics.json behind.
./target/release/bench_metrics > BENCH_metrics.json.tmp
mv BENCH_metrics.json.tmp BENCH_metrics.json

echo "==> wrote BENCH_metrics.json" >&2
