#!/usr/bin/env bash
# One command: build the benchmark, record where it ran, then run every
# workload — the timed pass (end-to-end metrics), then the traced pass
# (per-layer metrics and results/trace-<workload>.jsonl).
# Extra arguments go to both passes: ./benchmark/run.sh --seed 2, --smoke, ...
set -euo pipefail
cd "$(dirname "$0")/.."
# The session default parallelism and sink read these.
unset QDK_TRACE QDK_TEST_THREADS
results=benchmark/results
mkdir -p "$results"
{
  echo "date: $(date -u +%FT%TZ)"
  echo "commit: $(git rev-parse HEAD 2>/dev/null || echo 'not a git checkout')"
  echo "nproc: $(nproc)"
  echo "rustc: $(rustc --version)"
  echo "filesystem: $(df -T "$results" | awk 'NR == 2 { print $2 }')"
  echo "kernel: $(uname -sr)"
} | tee "$results/environment.txt"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/qdk-benchmark"
"$bin" --workload all "$@"
"$bin" --workload all --trace "$@"
