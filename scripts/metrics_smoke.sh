#!/usr/bin/env bash
# Observability smoke test: metrics exposition + phase profiler, the way
# CI runs it.
#
#   1. Start `repro serve` with `--metrics-addr` (standalone Prometheus
#      HTTP listener) and `--span-log` on loopback ports.
#   2. Run one client job, then scrape the HTTP endpoint with a raw GET
#      over /dev/tcp and validate the exposition: HELP/TYPE pairs, the
#      cache / scheduler / kernel-phase series, and live job counters.
#   3. Ask the wire protocol for the same registry (`metrics` verb) and
#      for the finished job's lifecycle span (`spans` verb).
#   4. Check the span log file carries one JSONL span per finished job.
#   5. Shut down, then run `repro profile --smoke` — asserts the
#      phase-attribution self-consistency invariant (phase sums equal
#      the measured loop time exactly) and the <5 %
#      metrics-registry overhead budget.
#
# That recording never reaches the simulation is held by
# `tests/telemetry_equivalence.rs`, which measures with the registry on
# and off through `metrics::set_enabled`.
#
# Usage: scripts/metrics_smoke.sh   (binaries must already be built:
#        cargo build --release -p hbm-bench --bin repro
#        cargo build --release -p hbm-fpga --example serve_client)

set -euo pipefail
cd "$(dirname "$0")/.."

REPRO=target/release/repro
CLIENT=target/release/examples/serve_client
PORT=17931
MPORT=17932
ADDR="127.0.0.1:${PORT}"
WORK=$(mktemp -d)
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

[ -x "$REPRO" ] || { echo "missing $REPRO (build it first)"; exit 1; }
[ -x "$CLIENT" ] || { echo "missing $CLIENT (build it first)"; exit 1; }

echo "== start server on $ADDR with --metrics-addr 127.0.0.1:$MPORT --span-log"
"$REPRO" serve --addr "$ADDR" --jobs 2 \
  --metrics-addr "127.0.0.1:${MPORT}" --span-log "$WORK/spans.jsonl" \
  > "$WORK/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q '"serving"' "$WORK/server.log" 2>/dev/null && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/server.log"; echo "server died"; exit 1; }
  sleep 0.1
done
grep -q '"serving"' "$WORK/server.log" || { cat "$WORK/server.log"; echo "server never became ready"; exit 1; }
grep -q "\"metrics\":\"127.0.0.1:${MPORT}\"" "$WORK/server.log" \
  || { cat "$WORK/server.log"; echo "ready line missing the metrics address"; exit 1; }

echo "== run one job so the counters move"
"$CLIENT" "$ADDR" --quick > "$WORK/client.json" 2> "$WORK/client.err" \
  || { cat "$WORK/client.err"; echo "client failed"; exit 1; }

echo "== scrape the HTTP exposition endpoint"
exec 3<>"/dev/tcp/127.0.0.1/${MPORT}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 > "$WORK/scrape.http"
exec 3<&- 3>&-
grep -q '^HTTP/1.0 200 OK' "$WORK/scrape.http" || { head "$WORK/scrape.http"; echo "scrape not 200"; exit 1; }
grep -q 'Content-Type: text/plain; version=0.0.4' "$WORK/scrape.http" \
  || { echo "missing exposition content type"; exit 1; }
# Strip the HTTP head; everything after the blank line is the body.
sed '1,/^\r*$/d' "$WORK/scrape.http" > "$WORK/scrape.txt"

validate_exposition() {
  local f=$1
  # Every family the tentpole promises: cache, scheduler, kernel phases.
  for series in \
    hbm_cache_hits_total hbm_cache_misses_total hbm_cache_coalesced_total \
    hbm_serve_queue_wait_us hbm_serve_jobs_total hbm_serve_queued_points \
    hbm_serve_workers hbm_run_measurements_total hbm_kernel_phase_ns_total; do
    grep -q "^# TYPE ${series} " "$f" || { echo "exposition missing ${series}"; exit 1; }
  done
  # HELP precedes TYPE for every family.
  [ "$(grep -c '^# HELP ' "$f")" = "$(grep -c '^# TYPE ' "$f")" ] \
    || { echo "HELP/TYPE pairing broken"; exit 1; }
  # The session's activity is visible: one submitted+completed job, 14
  # measured points (the fig4 grid), and a +Inf bucket per histogram.
  grep -q '^hbm_serve_jobs_total{state="submitted"} 1$' "$f" || { echo "submitted count wrong"; exit 1; }
  grep -q '^hbm_serve_jobs_total{state="completed"} 1$' "$f" || { echo "completed count wrong"; exit 1; }
  grep -q '^hbm_serve_rows_total{outcome="done"} 14$' "$f" || { echo "done-row count wrong"; exit 1; }
  grep -q '^hbm_run_measurements_total 14$' "$f" || { echo "measurement count wrong"; exit 1; }
  grep -q 'hbm_serve_queue_wait_us_bucket{le="+Inf"}' "$f" || { echo "histogram missing +Inf"; exit 1; }
  grep -q '^hbm_serve_workers 2$' "$f" || { echo "worker gauge wrong"; exit 1; }
}
validate_exposition "$WORK/scrape.txt"
echo "   exposition valid ($(grep -c '^# TYPE' "$WORK/scrape.txt") series families)"

echo "== the wire 'metrics' and 'spans' verbs agree"
exec 3<>"/dev/tcp/127.0.0.1/${PORT}"
printf '{"verb":"metrics"}\n' >&3
read -r REPLY <&3
echo "$REPLY" | grep -q '"ok":true' || { echo "metrics verb failed: $REPLY"; exit 1; }
echo "$REPLY" | grep -q 'hbm_serve_jobs_total' || { echo "metrics verb missing series"; exit 1; }
printf '{"verb":"spans"}\n' >&3
read -r REPLY <&3
echo "$REPLY" | grep -q '"state":"Done"' || { echo "spans verb missing the finished job: $REPLY"; exit 1; }
exec 3<&- 3>&-

echo "== span log carries the finished job"
[ -s "$WORK/spans.jsonl" ] || { echo "span log is empty"; exit 1; }
grep -q '"state":"Done"' "$WORK/spans.jsonl" || { cat "$WORK/spans.jsonl"; echo "no completed span logged"; exit 1; }

echo "== shutdown over the wire"
exec 3<>"/dev/tcp/127.0.0.1/${PORT}"
printf '{"verb":"shutdown"}\n' >&3
read -r REPLY <&3 || true
exec 3<&- 3>&-
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVER_PID" 2>/dev/null && { echo "server did not exit"; exit 1; }

echo "== repro profile --smoke (self-consistency + overhead budget)"
"$REPRO" profile --smoke > "$WORK/profile.out"
grep -q 'profile smoke: OK' "$WORK/profile.out" || { cat "$WORK/profile.out"; exit 1; }
grep -q 'sum == total: true' "$WORK/profile.out" || { cat "$WORK/profile.out"; echo "missing consistency line"; exit 1; }

echo "metrics smoke: OK"
