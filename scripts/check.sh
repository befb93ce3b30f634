#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full test suite, then smoke-run
# the microbenches and validate their machine-readable BENCH_*.json output
# (the cross-PR perf trajectory record) — a missing or malformed file fails
# the check.
# Usage: scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Online-pipeline smoke with full telemetry: live stats endpoint, JSONL
# timeline, final registry snapshot. The scrape loop polls the endpoint
# WHILE the pipeline trains and must see a trainer counter and a server
# counter in the Prometheus text — proving the whole instrumented stack is
# observable mid-run, not just at exit.
OBS_PORT=19757
"$BUILD_DIR"/example_online_rollout \
  --stats-port "$OBS_PORT" \
  --timeline "$BUILD_DIR/pipeline_timeline.jsonl" \
  --metrics-json "$BUILD_DIR/pipeline_metrics.json" &
ROLLOUT_PID=$!
SCRAPE=""
for _ in $(seq 1 200); do
  if SCRAPE="$( (exec 3<>/dev/tcp/127.0.0.1/$OBS_PORT &&
                 printf 'GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' >&3 &&
                 cat <&3) 2>/dev/null )" \
     && grep -q "cafe_train_steps_total" <<< "$SCRAPE"; then
    break
  fi
  SCRAPE=""
  sleep 0.02
done
wait "$ROLLOUT_PID"
grep -q "cafe_train_steps_total"    <<< "$SCRAPE" || { echo "FAIL: live scrape missing cafe_train_steps_total" >&2; exit 1; }
grep -q "cafe_serve_requests_total" <<< "$SCRAPE" || { echo "FAIL: live scrape missing cafe_serve_requests_total" >&2; exit 1; }
echo "ok: live scrape saw trainer + server metrics on :$OBS_PORT"
scripts/validate_bench_json.sh \
  "$BUILD_DIR/pipeline_timeline.jsonl:t_us,step,generation,loss_ema,queue_depth,shed_rate,requests_total" \
  "$BUILD_DIR/pipeline_metrics.json:train.steps_total,snapshot.publish_us,serve.shed_rate"

# Bench smokes with machine-readable results.
"$BUILD_DIR"/bench_lookup_batch --smoke --json "$BUILD_DIR/BENCH_lookup_batch.json"
"$BUILD_DIR"/bench_backward     --smoke --json "$BUILD_DIR/BENCH_backward.json"
"$BUILD_DIR"/bench_serving      --smoke --json "$BUILD_DIR/BENCH_serving.json"
"$BUILD_DIR"/bench_hot_swap     --smoke --json "$BUILD_DIR/BENCH_hot_swap.json"
"$BUILD_DIR"/bench_replication  --smoke --json "$BUILD_DIR/BENCH_replication.json"

# backward pins the parallel-scatter contract (the threads -> updates/sec
# scaling series from the sharded backward sweep); hot_swap additionally
# pins the O(dirty)-publish contract: the double-buffered rollout must keep
# reporting its copy/apply/publish split and the per-dirty-fraction
# publish-scaling series; replication pins the same contract OVER THE WIRE
# (replica publish lag must keep tracking the streamed delta bytes).
scripts/validate_bench_json.sh \
  "$BUILD_DIR/BENCH_lookup_batch.json:results,batched_lookups_per_sec,batched_updates_per_sec" \
  "$BUILD_DIR/BENCH_backward.json:backward_scaling,threads,updates_per_sec,speedup_vs_serial,obs_enabled" \
  "$BUILD_DIR/BENCH_serving.json:serving,qps,p99_us,obs_enabled" \
  "$BUILD_DIR/BENCH_hot_swap.json:last_publish_us,last_apply_bytes,retired_buffers,publish_scaling,dirty_fraction,full_publish_us" \
  "$BUILD_DIR/BENCH_replication.json:replication,dirty_fraction,delta_bytes,replica_lag_us,rejoin_delta_us,rejoin_base_us"

# Instrumentation must stay within its overhead budget vs the no-op shim
# build (also merges the comparison into BENCH_backward.json).
scripts/obs_overhead.sh "$BUILD_DIR" "$BUILD_DIR-noobs"
