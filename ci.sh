#!/usr/bin/env bash
# CI gate for BRISK. Twelve stages, any failure aborts the run:
#   1. tier-1: release-ish build + the full ctest suite
#   2. determinism + poller parity: the ingest/ordering determinism grid
#      run explicitly — one test body covering {select, epoll} x reader
#      threads x sorter shards {1,2,4}, asserting byte-identical sorted
#      output with self-instrumentation enabled — plus the relay-federation
#      grid (inline/threaded ingest x shards {1,4} with relay lanes, tree
#      output byte-identical to flat) and the poller parity suite across
#      both backends
#   3. bench smoke: a short saturated bench_throughput run with the sharded
#      ordering pipeline (shards=2) plus the tracing-overhead check, and a
#      bench_latency --smoke pass proving annotated records deliver —
#      catches pipeline wiring regressions that unit tests with tame
#      inputs miss
#   4. metrics smoke: a real daemon pair (brisk_ism + brisk_exs) with
#      --metrics-interval on, then brisk_consume --metrics against the shm
#      ring — one decoded ISM metrics record and the EXS's
#      exs.loop_wakeups counter must appear in the table
#   5. latency smoke: ISM + two traced EXS daemons with synthetic
#      workloads, then brisk_consume --mode latency — every stage-pair
#      histogram must report, and --trace-out must emit a Chrome trace
#      JSON with spans from both nodes
#   6. flow-control smoke: an overdriven brisk_exs (300k ev/s) against a
#      brisk_ism whose ordering thread is periodically stalled (outbound
#      fault injection) with tiny ingest lanes — with credit grants off the
#      EXS blasts into the blocked socket, its writes stall, and records
#      drop at the rings (must be nonzero); with --ism-credit-records on,
#      the pacer parks batches in the replay buffer instead and ring drops
#      must be exactly zero, with 0 replayed and 0 evicted batches in the
#      EXS resilience footer
#   7. fan-out smoke: ISM with --consumer-port on, one EXS (workload +
#      tracing + metrics), three brisk_consume subscribers over TCP with
#      disjoint pushdown filters (workload sensors / 0xFF01 metrics /
#      0xFF02 spans) — each stream must be non-empty and contain only its
#      own sensor ids (zero cross-contamination through the gateway)
#   8. relay smoke: the same 4-node workload run flat (4 EXS → 1 ISM) and
#      as a 2-level tree (4 EXS → 2 relay ISMs → root ISM) through the
#      real binaries — both outputs must carry records from all 4 origin
#      nodes and be globally timestamp-sorted, and the tree's node set
#      must match the flat run's (byte-identity across the determinism
#      grid is proven in-process by relay_federation_test in stage 1)
#   9. health smoke: an aggregating 2-relay tree (4 EXS → 2 relay ISMs
#      with --relay-aggregate-metrics → root ISM), one EXS killed -9
#      mid-run — brisk_consume --mode health --json at the root must
#      report the dead node stale/departed (its aggregate watermark
#      freezes while the fleet frontier advances) and every survivor live
#  10. resilience: the crash/churn/fault-injection label on the same build
#  11. sanitize: a separate ASan+UBSan tree running the resilience label
#      (including the flow-control property suite), which is where lifetime
#      and data-race-adjacent bugs actually surface, plus the output
#      encoders that write records into stack buffers, write_all's
#      writability wait on a descriptor beyond FD_SETSIZE, the upstream
#      client suite (blocking flush, reconnect budget, writable toggling),
#      the SPSC queue's capacity guard, the session table plus the
#      window-update and ack-cadence tests (drained cells, regrant marks),
#      the flag layer and knob tables (member-pointer paths and setters
#      run on every daemon start) with the daemon binaries they generate,
#      and the pipeline and gateway run hand-over tests (sinks read spans
#      over the pipeline's scratch), and the shm ring and slot directory
#      suites (header layout, handles with cached cursors, staged runs)
#  12. tsan: a TSan tree over the threaded ingest/ordering/metrics/trace
#      tests plus the window-update and ack-cadence tests, the session
#      table, the flow-control property suite, the consumer-gateway
#      suite, the federation suite (relay lanes, reader migration,
#      two-hop sync, metrics aggregation, relay reconnect + replay), the
#      upstream client suite, and the flight-recorder and health-rollup
#      suites, and the shm ring's two-thread stress test — the
#      cross-thread stats counters, the credit
#      drained-record cells and their regrant marks and wakeups (bumped on
#      the merger thread while the session table publishes, re-arms and
#      retires them), the relay lane cells, the threaded
#      close path, the gateway's fan-out thread, and the ring's cursors
#      and staged publishes must stay clean on the whole grid
#
# Usage: ./ci.sh [--skip-sanitize]
set -euo pipefail
cd "$(dirname "$0")"

SKIP_SANITIZE=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) SKIP_SANITIZE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> [1/12] tier-1 build + full test suite"
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "==> [2/12] determinism + relay-federation grids + poller parity (select + epoll, shards 1/2/4, metrics on)"
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'IsmIngestDeterminismTest|RelayFederationTest|PollerTest'

echo "==> [3/12] bench smoke: sharded ordering pipeline + traced delivery"
./build/bench/bench_throughput --smoke
./build/bench/bench_latency --smoke

echo "==> [4/12] metrics smoke: daemon pair + brisk_consume --metrics"
METRICS_SHM_OUT="/brisk-ci-metrics-out-$$"
METRICS_SHM_NODE="/brisk-ci-metrics-node-$$"
ISM_PID=""
EXS_PID=""
cleanup_metrics_smoke() {
  [[ -n "$EXS_PID" ]] && kill "$EXS_PID" 2>/dev/null || true
  [[ -n "$ISM_PID" ]] && kill "$ISM_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -f "/dev/shm${METRICS_SHM_OUT}" "/dev/shm${METRICS_SHM_NODE}" 2>/dev/null || true
}
trap cleanup_metrics_smoke EXIT
ISM_LOG="$(mktemp)"
./build/src/apps/brisk_ism --port 0 --shm "$METRICS_SHM_OUT" \
  --metrics-interval 1 --stats-interval 1 >"$ISM_LOG" 2>&1 &
ISM_PID=$!
ISM_PORT=""
for _ in $(seq 1 50); do
  ISM_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$ISM_LOG" | head -1)"
  [[ -n "$ISM_PORT" ]] && break
  sleep 0.1
done
[[ -n "$ISM_PORT" ]] || { echo "metrics smoke: ISM never reported its port" >&2; cat "$ISM_LOG" >&2; exit 1; }
./build/src/apps/brisk_exs --node 1 --shm "$METRICS_SHM_NODE" \
  --ism-host 127.0.0.1 --ism-port "$ISM_PORT" --metrics-interval 1 >/dev/null 2>&1 &
EXS_PID=$!
sleep 3  # a few metrics intervals
# The daemons keep emitting, so the consumer never goes idle: bound it with
# timeout — SIGTERM lands in its signal handler, which prints the final table.
METRICS_OUT="$(timeout 6 ./build/src/apps/brisk_consume --shm "$METRICS_SHM_OUT" --metrics \
  --idle-exit-ms 0 || true)"
echo "$METRICS_OUT" | grep -q 'ism\.records_received' \
  || { echo "metrics smoke: no decoded ISM metrics record in consumer table" >&2; \
       echo "$METRICS_OUT" >&2; exit 1; }
echo "$METRICS_OUT" | grep 'ism\.records_received' | head -1
# The EXS snapshot rides in-band through the ISM: its loop-pacing counter
# must reach the same table.
echo "$METRICS_OUT" | grep -q 'exs\.loop_wakeups' \
  || { echo "metrics smoke: no decoded EXS exs.loop_wakeups record in consumer table" >&2; \
       echo "$METRICS_OUT" >&2; exit 1; }
echo "$METRICS_OUT" | grep 'exs\.loop_wakeups' | head -1
cleanup_metrics_smoke
trap - EXIT

echo "==> [5/12] latency smoke: traced daemon trio + brisk_consume --mode latency"
LAT_SHM_OUT="/brisk-ci-lat-out-$$"
LAT_SHM_NODE1="/brisk-ci-lat-node1-$$"
LAT_SHM_NODE2="/brisk-ci-lat-node2-$$"
LAT_TRACE_JSON="$(mktemp --suffix=.json)"
ISM_PID=""
EXS1_PID=""
EXS2_PID=""
cleanup_latency_smoke() {
  [[ -n "$EXS1_PID" ]] && kill "$EXS1_PID" 2>/dev/null || true
  [[ -n "$EXS2_PID" ]] && kill "$EXS2_PID" 2>/dev/null || true
  [[ -n "$ISM_PID" ]] && kill "$ISM_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -f "/dev/shm${LAT_SHM_OUT}" "/dev/shm${LAT_SHM_NODE1}" \
        "/dev/shm${LAT_SHM_NODE2}" "$LAT_TRACE_JSON" 2>/dev/null || true
}
trap cleanup_latency_smoke EXIT
ISM_LOG="$(mktemp)"
./build/src/apps/brisk_ism --port 0 --shm "$LAT_SHM_OUT" \
  --metrics-interval 1 --stats-interval 1 >"$ISM_LOG" 2>&1 &
ISM_PID=$!
ISM_PORT=""
for _ in $(seq 1 50); do
  ISM_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$ISM_LOG" | head -1)"
  [[ -n "$ISM_PORT" ]] && break
  sleep 0.1
done
[[ -n "$ISM_PORT" ]] || { echo "latency smoke: ISM never reported its port" >&2; cat "$ISM_LOG" >&2; exit 1; }
# Two traced nodes: the Chrome trace must show spans from both pids.
./build/src/apps/brisk_exs --node 1 --shm "$LAT_SHM_NODE1" \
  --ism-host 127.0.0.1 --ism-port "$ISM_PORT" \
  --workload-rate 200 --trace-sample-rate 1.0 >/dev/null 2>&1 &
EXS1_PID=$!
./build/src/apps/brisk_exs --node 2 --shm "$LAT_SHM_NODE2" \
  --ism-host 127.0.0.1 --ism-port "$ISM_PORT" \
  --workload-rate 200 --trace-sample-rate 1.0 >/dev/null 2>&1 &
EXS2_PID=$!
sleep 4  # a few metrics intervals with traced records flowing
LATENCY_OUT="$(timeout 6 ./build/src/apps/brisk_consume --shm "$LAT_SHM_OUT" \
  --mode latency --trace-out "$LAT_TRACE_JSON" --idle-exit-ms 0 || true)"
for pair in lat.ring_to_drain lat.drain_to_seal lat.seal_to_send \
            lat.send_to_ingest lat.ingest_to_sort lat.sort_to_merge \
            lat.merge_to_cre lat.cre_to_sink lat.end_to_end; do
  echo "$LATENCY_OUT" | grep -q "$pair" \
    || { echo "latency smoke: stage pair $pair missing from --mode latency table" >&2; \
         echo "$LATENCY_OUT" >&2; exit 1; }
done
echo "$LATENCY_OUT" | grep 'lat\.end_to_end' | head -1
python3 - "$LAT_TRACE_JSON" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
assert spans, "no trace spans in Chrome trace JSON"
pids = {e["pid"] for e in spans}
assert {1, 2} <= pids, f"expected spans from both nodes, got pids {sorted(pids)}"
print(f"latency smoke: {len(spans)} spans from nodes {sorted(pids)}")
PYEOF
cleanup_latency_smoke
trap - EXIT

echo "==> [6/12] flow-control smoke: overdriven EXS vs stalled ISM, credits off/on"
FC_SHM_OUT="/brisk-ci-fc-out-$$"
FC_SHM_NODE="/brisk-ci-fc-node-$$"
ISM_PID=""
EXS_PID=""
cleanup_fc_smoke() {
  [[ -n "$EXS_PID" ]] && kill "$EXS_PID" 2>/dev/null || true
  [[ -n "$ISM_PID" ]] && kill "$ISM_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -f "/dev/shm${FC_SHM_OUT}" "/dev/shm${FC_SHM_NODE}" 2>/dev/null || true
}
trap cleanup_fc_smoke EXIT
# One overdriven run; $1 = extra ISM flags (credit knobs). Sets FC_DROPS to
# the EXS's final ring-drop count. The ISM's ordering thread sleeps 150ms
# around every second outbound ack (fault injection), so its socket reads
# pause and the TCP window pushes back on the EXS — the "ISM at half the
# offered load" shape without needing a slow machine. The ack period runs
# from the end of each ack's write, so an unstalled ack follows a stalled
# one a full period later; at 100ms the stalled ISM kept up often enough
# that the credits-off run saw no ring drops. With credits on, the replay
# buffer must hold the whole 4 s backlog (~64k 16-record batches).
run_fc_pair() {
  ISM_LOG="$(mktemp)"
  # shellcheck disable=SC2086  # $1 is deliberately word-split flag args
  ./build/src/apps/brisk_ism --port 0 --shm "$FC_SHM_OUT" \
    --ism-reader-threads 1 --ingest-queue-frames 4 --select-timeout-us 10000 \
    --ack-period-us 20000 --fault-stall-every 2 --fault-stall-us 150000 \
    $1 >"$ISM_LOG" 2>&1 &
  ISM_PID=$!
  ISM_PORT=""
  for _ in $(seq 1 50); do
    ISM_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$ISM_LOG" | head -1)"
    [[ -n "$ISM_PORT" ]] && break
    sleep 0.1
  done
  [[ -n "$ISM_PORT" ]] || { echo "flow smoke: ISM never reported its port" >&2; cat "$ISM_LOG" >&2; exit 1; }
  EXS_OUT="$(mktemp)"
  ./build/src/apps/brisk_exs --node 1 --shm "$FC_SHM_NODE" \
    --ism-host 127.0.0.1 --ism-port "$ISM_PORT" \
    --workload-rate 300000 --batch-records 16 --batch-age-us 2000 \
    --ring-bytes 1048576 --replay-batches 131072 --select-timeout-us 2000 \
    >"$EXS_OUT" 2>&1 &
  EXS_PID=$!
  sleep 4
  kill "$EXS_PID" 2>/dev/null || true
  wait "$EXS_PID" 2>/dev/null || true
  EXS_PID=""
  kill "$ISM_PID" 2>/dev/null || true
  wait "$ISM_PID" 2>/dev/null || true
  ISM_PID=""
  rm -f "/dev/shm${FC_SHM_OUT}" "/dev/shm${FC_SHM_NODE}" 2>/dev/null || true
  grep 'ring drops' "$EXS_OUT" || { echo "flow smoke: no EXS stats line" >&2; cat "$EXS_OUT" >&2; exit 1; }
  FC_DROPS="$(sed -n 's/.*(\([0-9][0-9]*\) ring drops).*/\1/p' "$EXS_OUT" | head -1)"
  grep 'resilience:' "$EXS_OUT" || { echo "flow smoke: no EXS resilience line" >&2; cat "$EXS_OUT" >&2; exit 1; }
  FC_REPLAYED="$(sed -n 's/^resilience: .* \([0-9][0-9]*\) replayed,.*/\1/p' "$EXS_OUT" | head -1)"
  FC_EVICTED="$(sed -n 's/^resilience: .* \([0-9][0-9]*\) evicted,.*/\1/p' "$EXS_OUT" | head -1)"
}
run_fc_pair ""
[[ "$FC_DROPS" -gt 0 ]] \
  || { echo "flow smoke: expected ring drops with credits OFF, got $FC_DROPS" >&2; exit 1; }
run_fc_pair "--ism-credit-records 8192 --credit-replenish-us 5000"
[[ "$FC_DROPS" -eq 0 ]] \
  || { echo "flow smoke: expected ZERO ring drops with credits ON, got $FC_DROPS" >&2; exit 1; }
# The stalled acks must not read as loss either: no go-back-N resends and
# no replay-buffer evictions with credits on.
[[ "$FC_REPLAYED" -eq 0 && "$FC_EVICTED" -eq 0 ]] \
  || { echo "flow smoke: expected 0 replayed / 0 evicted with credits ON, got $FC_REPLAYED / $FC_EVICTED" >&2; exit 1; }
echo "flow smoke: credits off drops, credits on loses nothing at the rings and replays nothing"
cleanup_fc_smoke
trap - EXIT

echo "==> [7/12] fan-out smoke: gateway + 3 disjoint TCP subscribers"
FAN_SHM_OUT="/brisk-ci-fan-out-$$"
FAN_SHM_NODE="/brisk-ci-fan-node-$$"
ISM_PID=""
EXS_PID=""
cleanup_fanout_smoke() {
  [[ -n "$EXS_PID" ]] && kill "$EXS_PID" 2>/dev/null || true
  [[ -n "$ISM_PID" ]] && kill "$ISM_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -f "/dev/shm${FAN_SHM_OUT}" "/dev/shm${FAN_SHM_NODE}" 2>/dev/null || true
}
trap cleanup_fanout_smoke EXIT
ISM_LOG="$(mktemp)"
./build/src/apps/brisk_ism --port 0 --shm "$FAN_SHM_OUT" --consumer-port 0 \
  --metrics-interval 1 >"$ISM_LOG" 2>&1 &
ISM_PID=$!
ISM_PORT=""
CONSUMER_PORT=""
for _ in $(seq 1 50); do
  ISM_PORT="$(sed -n 's/.*brisk_ism .* listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$ISM_LOG" | head -1)"
  CONSUMER_PORT="$(sed -n 's/.*consumer gateway listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$ISM_LOG" | head -1)"
  [[ -n "$ISM_PORT" && -n "$CONSUMER_PORT" ]] && break
  sleep 0.1
done
[[ -n "$ISM_PORT" && -n "$CONSUMER_PORT" ]] \
  || { echo "fan-out smoke: ISM never reported its ports" >&2; cat "$ISM_LOG" >&2; exit 1; }
# One traced node emitting workload sensors (1..), 0xFF01 metrics, 0xFF02 spans.
./build/src/apps/brisk_exs --node 1 --shm "$FAN_SHM_NODE" \
  --ism-host 127.0.0.1 --ism-port "$ISM_PORT" \
  --workload-rate 500 --trace-sample-rate 1.0 --metrics-interval 1 >/dev/null 2>&1 &
EXS_PID=$!
# Three subscribers, disjoint sensor filters: workload / metrics / spans.
FAN_WK="$(mktemp)"; FAN_MX="$(mktemp)"; FAN_SP="$(mktemp)"
timeout 6 ./build/src/apps/brisk_consume --connect "127.0.0.1:$CONSUMER_PORT" \
  --filter 'sensor=0-99' --sub-name ci-workload --idle-exit-ms 0 >"$FAN_WK" 2>/dev/null &
WK_PID=$!
timeout 6 ./build/src/apps/brisk_consume --connect "127.0.0.1:$CONSUMER_PORT" \
  --filter 'sensor=65281' --sub-name ci-metrics --idle-exit-ms 0 >"$FAN_MX" 2>/dev/null &
MX_PID=$!
timeout 6 ./build/src/apps/brisk_consume --connect "127.0.0.1:$CONSUMER_PORT" \
  --filter 'sensor=65282' --sub-name ci-spans --idle-exit-ms 0 >"$FAN_SP" 2>/dev/null &
SP_PID=$!
wait "$WK_PID" "$MX_PID" "$SP_PID" 2>/dev/null || true
cleanup_fanout_smoke
trap - EXIT
# Each stream must be non-empty, and PICL field 2 (the sensor/event id)
# must never stray outside the subscriber's own filter.
check_fanout_stream() {  # $1 = file, $2 = label, $3 = awk predicate over $2
  [[ -s "$1" ]] || { echo "fan-out smoke: $2 stream is empty" >&2; exit 1; }
  BAD="$(awk "!($3)" "$1" | head -3)"
  [[ -z "$BAD" ]] \
    || { echo "fan-out smoke: $2 stream contaminated:" >&2; echo "$BAD" >&2; exit 1; }
}
check_fanout_stream "$FAN_WK" workload '$2 >= 0 && $2 <= 99'
check_fanout_stream "$FAN_MX" metrics '$2 == 65281'
check_fanout_stream "$FAN_SP" spans '$2 == 65282'
echo "fan-out smoke: $(wc -l <"$FAN_WK") workload / $(wc -l <"$FAN_MX") metrics / $(wc -l <"$FAN_SP") span lines, disjoint"
rm -f "$FAN_WK" "$FAN_MX" "$FAN_SP"

echo "==> [8/12] relay smoke: flat vs 2-level relay tree through the real binaries"
RELAY_DIR="$(mktemp -d)"
RELAY_ISM_PIDS=()
RELAY_EXS_PIDS=()
RELAY_SHMS=()
cleanup_relay_smoke() {
  for pid in "${RELAY_EXS_PIDS[@]:-}" "${RELAY_ISM_PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  for shm in "${RELAY_SHMS[@]:-}"; do rm -f "/dev/shm${shm}" 2>/dev/null || true; done
  rm -rf "$RELAY_DIR"
}
trap cleanup_relay_smoke EXIT
# Every ISM holds a fixed 2 s sorter frame: the sorted-output claim below
# is only sound for records the sorter could still see together, and a
# live ramp-up (nodes connecting at different times) would otherwise let
# early records release before late-connecting peers' older ones arrive.
RELAY_FRAME_FLAGS="--frame-us 2000000 --min-frame-us 2000000 --adaptive=false"
# Starts a brisk_ism ($1 = log file, rest = flags), waits for its port and
# leaves it in RELAY_PORT. NOT safe to call via $(...): the pid bookkeeping
# must happen in this shell, or the kill loops iterate an empty array and
# every ISM leaks past the stage.
start_ism() {
  local log="$1"; shift
  # shellcheck disable=SC2086  # frame flags deliberately word-split
  ./build/src/apps/brisk_ism --port 0 $RELAY_FRAME_FLAGS "$@" >"$log" 2>&1 &
  RELAY_ISM_PIDS+=("$!")
  RELAY_PORT=""
  for _ in $(seq 1 50); do
    RELAY_PORT="$(sed -n 's/.*brisk_ism .* listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)"
    [[ -n "$RELAY_PORT" ]] && break
    sleep 0.1
  done
  [[ -n "$RELAY_PORT" ]] \
    || { echo "relay smoke: ISM never reported its port" >&2; cat "$log" >&2; exit 1; }
}
# Runs the 4-node workload against topology $1 (flat|tree) and leaves the
# root's PICL output in $RELAY_DIR/$1.picl.
run_relay_topology() {
  local topo="$1"
  local root_shm="/brisk-ci-relay-${topo}-root-$$"
  RELAY_SHMS+=("$root_shm")
  local root_port
  start_ism "$RELAY_DIR/$topo-root.log" --shm "$root_shm"
  root_port="$RELAY_PORT"
  local exs_ports=()
  if [[ "$topo" == tree ]]; then
    # Both relays are connected to the root (RelayEgress requires the
    # initial connect to succeed before the port banner prints) before any
    # EXS starts, so the root's merge is gated by both lanes from the
    # first record on.
    for r in 0 1; do
      local relay_shm="/brisk-ci-relay-${topo}-r${r}-$$"
      RELAY_SHMS+=("$relay_shm")
      local relay_port
      start_ism "$RELAY_DIR/$topo-relay$r.log" --shm "$relay_shm" \
        --relay-to "127.0.0.1:$root_port" --relay-node "$((1000 + r))" \
        --relay-batch-age-us 2000 --relay-idle-wm-us 20000
      relay_port="$RELAY_PORT"
      exs_ports+=("$relay_port" "$relay_port")
    done
  else
    exs_ports=("$root_port" "$root_port" "$root_port" "$root_port")
  fi
  for node in 1 2 3 4; do
    local node_shm="/brisk-ci-relay-${topo}-node${node}-$$"
    RELAY_SHMS+=("$node_shm")
    ./build/src/apps/brisk_exs --node "$node" --shm "$node_shm" \
      --ism-host 127.0.0.1 --ism-port "${exs_ports[$((node - 1))]}" \
      --workload-rate 300 >/dev/null 2>&1 &
    RELAY_EXS_PIDS+=("$!")
  done
  sleep 4
  for pid in "${RELAY_EXS_PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait "${RELAY_EXS_PIDS[@]}" 2>/dev/null || true
  RELAY_EXS_PIDS=()
  sleep 3  # let the 2 s sorter frames flush the held records downstream
  for pid in "${RELAY_ISM_PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait "${RELAY_ISM_PIDS[@]}" 2>/dev/null || true
  RELAY_ISM_PIDS=()
  timeout 6 ./build/src/apps/brisk_consume --shm "$root_shm" \
    --idle-exit-ms 300 >"$RELAY_DIR/$topo.picl" 2>/dev/null || true
  [[ -s "$RELAY_DIR/$topo.picl" ]] \
    || { echo "relay smoke: $topo run delivered no output" >&2; exit 1; }
  # Globally timestamp-sorted (PICL field 3), records from all 4 nodes
  # (field 4) — the merge invariants, through the real daemons.
  awk 'prev != "" && $3 + 0 < prev + 0 { print "unsorted at line " NR; exit 1 } { prev = $3 }' \
    "$RELAY_DIR/$topo.picl" \
    || { echo "relay smoke: $topo output is not timestamp-sorted" >&2; exit 1; }
  for node in 1 2 3 4; do
    awk -v n="$node" '$4 == n { found = 1 } END { exit !found }' "$RELAY_DIR/$topo.picl" \
      || { echo "relay smoke: $topo output has no records from node $node" >&2; exit 1; }
  done
}
run_relay_topology flat
run_relay_topology tree
# The tree must deliver the same set of origin nodes the flat run did.
FLAT_NODES="$(awk '{ print $4 }' "$RELAY_DIR/flat.picl" | sort -un | tr '\n' ' ')"
TREE_NODES="$(awk '{ print $4 }' "$RELAY_DIR/tree.picl" | sort -un | tr '\n' ' ')"
[[ "$FLAT_NODES" == "$TREE_NODES" ]] \
  || { echo "relay smoke: node sets differ (flat: $FLAT_NODES vs tree: $TREE_NODES)" >&2; exit 1; }
echo "relay smoke: flat $(wc -l <"$RELAY_DIR/flat.picl") / tree $(wc -l <"$RELAY_DIR/tree.picl") sorted records, nodes $TREE_NODES"
cleanup_relay_smoke
trap - EXIT

echo "==> [9/12] health smoke: aggregating relay tree, one EXS killed mid-run"
HEALTH_DIR="$(mktemp -d)"
HEALTH_ISM_PIDS=()
HEALTH_EXS_PIDS=()
HEALTH_SHMS=()
cleanup_health_smoke() {
  for pid in "${HEALTH_EXS_PIDS[@]:-}" "${HEALTH_ISM_PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  for shm in "${HEALTH_SHMS[@]:-}"; do rm -f "/dev/shm${shm}" 2>/dev/null || true; done
  rm -rf "$HEALTH_DIR"
}
trap cleanup_health_smoke EXIT
# Starts a brisk_ism ($1 = log file, rest = flags), waits for its port and
# leaves it in HEALTH_PORT. NOT safe to call via $(...): the pid bookkeeping
# must happen in this shell or cleanup never sees the daemon.
health_start_ism() {
  local log="$1"; shift
  ./build/src/apps/brisk_ism --port 0 "$@" >"$log" 2>&1 &
  HEALTH_ISM_PIDS+=("$!")
  HEALTH_PORT=""
  for _ in $(seq 1 50); do
    HEALTH_PORT="$(sed -n 's/.*brisk_ism .* listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)"
    [[ -n "$HEALTH_PORT" ]] && break
    sleep 0.1
  done
  [[ -n "$HEALTH_PORT" ]] \
    || { echo "health smoke: ISM never reported its port" >&2; cat "$log" >&2; exit 1; }
}
HEALTH_ROOT_SHM="/brisk-ci-health-root-$$"
HEALTH_SHMS+=("$HEALTH_ROOT_SHM")
health_start_ism "$HEALTH_DIR/root.log" --shm "$HEALTH_ROOT_SHM" --metrics-interval 1
HEALTH_ROOT_PORT="$HEALTH_PORT"
# Two aggregating relays: per-node 0xFF01 snapshots are absorbed below the
# root, so the dead node is only observable through its agg.node.<id>
# watermark gauge — exactly the path the health rollup must handle. A short
# quarantine makes the relay's 0xFF03 session_expired land inside the run.
HEALTH_RELAY_PORTS=()
for r in 0 1; do
  relay_shm="/brisk-ci-health-r${r}-$$"
  HEALTH_SHMS+=("$relay_shm")
  health_start_ism "$HEALTH_DIR/relay$r.log" --shm "$relay_shm" \
    --relay-to "127.0.0.1:$HEALTH_ROOT_PORT" --relay-node "$((1000 + r))" \
    --relay-aggregate-metrics --relay-batch-age-us 2000 --relay-idle-wm-us 20000 \
    --metrics-interval 1 --quarantine-us 1000000
  HEALTH_RELAY_PORTS+=("$HEALTH_PORT")
done
# Nodes 1,2 behind relay 0; nodes 3,4 behind relay 1. Node 3 is the victim.
VICTIM_PID=""
for node in 1 2 3 4; do
  node_shm="/brisk-ci-health-node${node}-$$"
  HEALTH_SHMS+=("$node_shm")
  ./build/src/apps/brisk_exs --node "$node" --shm "$node_shm" \
    --ism-host 127.0.0.1 --ism-port "${HEALTH_RELAY_PORTS[$(((node - 1) / 2))]}" \
    --workload-rate 200 --metrics-interval 1 >/dev/null 2>&1 &
  if [[ "$node" == 3 ]]; then VICTIM_PID=$!; else HEALTH_EXS_PIDS+=("$!"); fi
done
sleep 4
kill -9 "$VICTIM_PID" 2>/dev/null || true
wait "$VICTIM_PID" 2>/dev/null || true
sleep 5  # let node 3's evidence age past the 3x departed threshold
timeout 8 ./build/src/apps/brisk_consume --shm "$HEALTH_ROOT_SHM" \
  --mode health --json --health-stale-ms 1000 --idle-exit-ms 0 \
  >"$HEALTH_DIR/health.json" 2>/dev/null || true
[[ -s "$HEALTH_DIR/health.json" ]] \
  || { echo "health smoke: no health output" >&2; exit 1; }
python3 - "$HEALTH_DIR/health.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [line for line in f if line.strip()]
doc = json.loads(lines[-1])
states = {n["node"]: n["state"] for n in doc["nodes"]}
dead = states.get(3)
assert dead in ("stale", "departed"), f"dead node 3 reported {dead!r} in {states}"
for node in (1, 2, 4):
    assert states.get(node) == "live", f"survivor {node} reported {states.get(node)!r} in {states}"
print(f"health smoke: node 3 {dead}, survivors live "
      f"({doc['metric_records']} metric records, {doc['event_records']} events)")
PYEOF
cleanup_health_smoke
trap - EXIT

echo "==> [10/12] resilience label"
ctest --test-dir build --output-on-failure -L resilience

if [[ "$SKIP_SANITIZE" == 1 ]]; then
  echo "==> [11/12] sanitizer stages skipped (--skip-sanitize)"
  exit 0
fi

echo "==> [11/12] ASan+UBSan build + resilience label + output encoders"
cmake -B build-asan -S . -DBRISK_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j"$JOBS"
ctest --test-dir build-asan --output-on-failure -L resilience
# The stack-buffer output encoders: the allocation-count binary (its counting
# operator new allocates through the sanitizer's malloc), the shm sink and
# the native codec; the upstream client's outbox and socket swaps across
# reconnects; the SPSC queue's capacity guard; and the session table's
# drained cells and regrant marks with the loopback window-update and
# ack-cadence tests that drive them through a live ISM; the flag layer
# and knob tables, whose rows store member-pointer paths and setters; the
# run hand-over, whose sinks read spans over the pipeline's scratch; the
# batch hand-off into the shard lanes (IngressAllocTest); and the shm ring and
# slot directory, whose handles cache the peer cursor.
ctest --test-dir build-asan --output-on-failure --no-tests=error \
  -R 'AllocCountTest|OutputAllocTest|IngressAllocTest|OutputTest|NativeCodecTest|RecordWriterTest|WriteAllWaitsOnDescriptorBeyondFdSetSize|UpstreamClient|SpscQueue|SessionTable|IsmWindowUpdate|IsmAckCadence|FlagRegistry|FlagParser|Knob|DescribeRendersKnobs|AppsTest|OrderingPipelineTest|GatewayTest|RingBuffer|MultiRing'

echo "==> [12/12] TSan build + SPSC lane/shm ring/ingest/ordering/metrics/trace/gateway/federation tests"
cmake -B build-tsan -S . -DBRISK_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS"
ctest --test-dir build-tsan --output-on-failure --no-tests=error -j"$JOBS" \
  -R 'SpscQueue|IsmServerTest|IsmIngestDeterminismTest|IsmWindowUpdate|IsmAckCadence|IsmServerClose|SessionTable|OrderingPipelineTest|Metrics|Trace|FlowControl|CreditGrant|Gateway|RelayFederation|ReaderMigration|FederatedSync|FlightRecorder|HealthRollup|RelayAggregation|UpstreamClient|RingBuffer|MultiRing'

echo "==> CI green"
