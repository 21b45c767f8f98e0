#!/usr/bin/env bash
# Serving-layer smoke test: end-to-end over real TCP, the way CI runs it.
#
#   1. Start `repro serve` in the background on a loopback port with a
#      queue that holds exactly one fig4 grid (--queue 20: one 14-point
#      grid fits, two never do).
#   2. Run two `serve_client` examples CONCURRENTLY against it and diff
#      each one's output against the direct `repro fig4 --json --quick`
#      path — streamed results must be byte-identical, per client. (The
#      clients' submit path retries a queue-full rejection on the
#      server's retry_after_ms hint, so the small queue also exercises
#      live backpressure here.)
#   3. Run the client's `--exercise` mode: deterministic queue-full
#      rejection; a 21-point grid, larger than the whole queue, refused
#      as too large (max_points 20) after one attempt of a retrying
#      submit, so `jobs_rejected` rises by exactly 1; cancellation of a
#      running job; stats accounting.
#   4. Poke raw NDJSON error paths over /dev/tcp.
#   5. Run one more --quick client, whose 14 points are all cached by
#      now: the `stats` verb must count 14 more cache hits and no more
#      queue waits, because cached rows are answered at admission.
#   6. Shut the server down over the wire and check it exits.
#
# Usage: scripts/serve_smoke.sh   (binaries must already be built:
#        cargo build --release -p hbm-bench --bin repro
#        cargo build --release -p hbm-fpga --example serve_client)

set -euo pipefail
cd "$(dirname "$0")/.."

REPRO=target/release/repro
CLIENT=target/release/examples/serve_client
PORT=17923
ADDR="127.0.0.1:${PORT}"
WORK=$(mktemp -d)
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

[ -x "$REPRO" ] || { echo "missing $REPRO (build it first)"; exit 1; }
[ -x "$CLIENT" ] || { echo "missing $CLIENT (build it first)"; exit 1; }

echo "== start server on $ADDR (--queue 20, --jobs 2)"
# A pinned worker count keeps the queue arithmetic of the exercises
# below host-independent: 2 of a 14-point grid dispatch immediately, 12
# stay queued, so a second grid (12 + 14 > 20) always overflows.
"$REPRO" serve --addr "$ADDR" --queue 20 --jobs 2 > "$WORK/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q '"serving"' "$WORK/server.log" 2>/dev/null && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/server.log"; echo "server died"; exit 1; }
  sleep 0.1
done
grep -q '"serving"' "$WORK/server.log" || { cat "$WORK/server.log"; echo "server never became ready"; exit 1; }

echo "== direct reference run"
"$REPRO" fig4 --json --quick > "$WORK/direct.json"

echo "== two concurrent clients must stream byte-identical results"
"$CLIENT" "$ADDR" --quick > "$WORK/client1.json" 2> "$WORK/client1.err" &
C1=$!
"$CLIENT" "$ADDR" --quick > "$WORK/client2.json" 2> "$WORK/client2.err" &
C2=$!
wait "$C1" || { cat "$WORK/client1.err"; echo "client 1 failed"; exit 1; }
wait "$C2" || { cat "$WORK/client2.err"; echo "client 2 failed"; exit 1; }
diff -u "$WORK/direct.json" "$WORK/client1.json" || { echo "client 1 diverged from the direct path"; exit 1; }
diff -u "$WORK/direct.json" "$WORK/client2.json" || { echo "client 2 diverged from the direct path"; exit 1; }
echo "   both clients byte-identical to the direct path"

echo "== queue-full rejection + too-large refusal + cancellation exercises"
"$CLIENT" "$ADDR" --exercise > "$WORK/exercise.out" 2> "$WORK/exercise.err" \
  || { cat "$WORK/exercise.err"; echo "exercise mode failed"; exit 1; }
grep -q 'exercises OK' "$WORK/exercise.out" || { cat "$WORK/exercise.out"; exit 1; }
cat "$WORK/exercise.err"

echo "== raw NDJSON error paths"
exec 3<>"/dev/tcp/127.0.0.1/${PORT}"
printf '{"verb":"status","job":12345}\n' >&3
read -r REPLY <&3
echo "$REPLY" | grep -q 'unknown job' || { echo "unexpected status reply: $REPLY"; exit 1; }
printf 'this is not json\n' >&3
read -r REPLY <&3
echo "$REPLY" | grep -q '"ok":false' || { echo "unexpected bad-request reply: $REPLY"; exit 1; }
exec 3<&- 3>&-
echo "   raw NDJSON verbs behave"

echo "== a cached grid is answered at admission"
read_stats() {
  exec 3<>"/dev/tcp/127.0.0.1/${PORT}"
  printf '{"verb":"stats"}\n' >&3
  read -r REPLY <&3
  exec 3<&- 3>&-
  echo "$REPLY"
}
hits() { echo "$1" | grep -o '"cache_hits":[0-9]*' | cut -d: -f2; }
waits() { echo "$1" | grep -o '"queue_wait_us":{"count":[0-9]*' | cut -d: -f3; }
BEFORE=$(read_stats)
"$CLIENT" "$ADDR" --quick > "$WORK/client_cached.json" 2> "$WORK/client_cached.err" \
  || { cat "$WORK/client_cached.err"; echo "cached client failed"; exit 1; }
diff -u "$WORK/direct.json" "$WORK/client_cached.json" || { echo "cached client diverged"; exit 1; }
AFTER=$(read_stats)
[ $(( $(hits "$AFTER") - $(hits "$BEFORE") )) -eq 14 ] \
  || { echo "expected 14 more cache hits: $BEFORE -> $AFTER"; exit 1; }
[ "$(waits "$AFTER")" = "$(waits "$BEFORE")" ] \
  || { echo "cached points waited in the queue: $BEFORE -> $AFTER"; exit 1; }
echo "   14 hits at admission, no point queued"

echo "== shutdown over the wire"
"$CLIENT" "$ADDR" --quick --shutdown > "$WORK/client_last.json"
diff -u "$WORK/direct.json" "$WORK/client_last.json" || { echo "final client diverged"; exit 1; }
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "server did not exit after shutdown verb"; exit 1
fi
grep -q 'serve: shut down' "$WORK/server.log" || { cat "$WORK/server.log"; echo "missing shutdown line"; exit 1; }

echo "serve smoke: OK"
