#!/bin/bash
# Regenerates every table and figure of the paper into results/, plus the
# serving-layer datapoints (BENCH_serve.json: serve_bench writes the
# healthy regimes, then chaos/load/shard/tune splice their sections).
# Usage: ./run_all_experiments.sh [extra flags passed to every binary]
#
# set -euo pipefail (hence bash, not sh): -e aborts on the first failing
# binary, -u rejects unset variables, and -o pipefail makes a bench
# failure fatal even though every invocation is piped through tee —
# under plain `set -e` the pipe's exit status is tee's, so a crashed
# binary would otherwise scroll by as a half-written results file.
set -euo pipefail
cargo build -q --release -p nextdoor-bench
BIN=target/release
$BIN/table1 --samples 1024 "$@"        | tee results/table1.txt
$BIN/fig6   --samples 4096 "$@"        | tee results/fig6.txt
$BIN/fig7a  --samples 8192 "$@"        | tee results/fig7a.txt
$BIN/fig7b  --samples 4096 "$@"        | tee results/fig7b.txt
$BIN/fig8   --samples 4096 "$@"        | tee results/fig8.txt
$BIN/table4 --samples 8192 "$@"        | tee results/table4.txt
$BIN/fig9   --samples 2048 "$@"        | tee results/fig9.txt
$BIN/fig10  --samples 8192 "$@"        | tee results/fig10.txt
$BIN/table5 --samples 512  "$@"        | tee results/table5.txt
$BIN/large_graphs --samples 4096 "$@"  | tee results/large_graphs.txt
$BIN/ablation "$@"                     | tee results/ablation.txt
$BIN/serve_bench --samples 4096 "$@"   | tee results/serve_bench.txt
$BIN/chaos_bench --samples 4096 "$@"   | tee results/chaos_bench.txt
$BIN/load_bench  --samples 4096 "$@"   | tee results/load_bench.txt
$BIN/shard_bench --samples 1024 "$@"   | tee results/shard_bench.txt
$BIN/tune_bench  --samples 4096 "$@"   | tee results/tune_bench.txt
