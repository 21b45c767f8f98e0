#!/usr/bin/env bash
# Result-cache smoke test: the end-to-end contract over a real disk tier.
#
#   1. Run `repro fig4 --json --quick --cache-dir D` twice. The second
#      (warm) run, at `--jobs 2`, must report cache hits and no misses on
#      stderr — two workers' first lookups both wait for the disk tier
#      to load — and its stdout must diff CLEAN against the first: a
#      cache hit is byte-identical to a fresh simulation, so caching is
#      invisible in the output.
#   2. Corrupt a disk segment (truncate mid-line, the crash shape the
#      write-then-rename protocol defends against) and run again: the
#      damaged segment is skipped loudly, the grid is recomputed, and
#      stdout still diffs clean — damage costs time, never correctness.
#   3. The run after that must be warm again (the recomputation
#      re-flushed a healthy segment).
#   4. `--no-cache` must win over `--cache-dir`: no cache summary, same
#      stdout.
#   5. Relabel every warm segment's lines `"v":2`, as an older build's
#      would read: they count as stale, not corrupt — no segment is
#      reported corrupted, the run serves 0 hits, and stdout still diffs
#      clean.
#
# Usage: scripts/cache_smoke.sh   (binary must already be built:
#        cargo build --release -p hbm-bench --bin repro)

set -euo pipefail
cd "$(dirname "$0")/.."

REPRO=target/release/repro
WORK=$(mktemp -d)
CACHE="$WORK/cache"
trap 'rm -rf "$WORK"' EXIT

[ -x "$REPRO" ] || { echo "missing $REPRO (build it first)"; exit 1; }

# Pull the N and the M out of "hbm-cache: N hits, M misses, ..." on stderr.
hits_of() { grep -o 'hbm-cache: [0-9]* hits' "$1" | grep -o '[0-9]*' || echo 0; }
misses_of() { grep -o 'hbm-cache: [0-9]* hits, [0-9]* misses' "$1" | grep -o '[0-9]* misses' | grep -o '[0-9]*'; }

echo "== cold run (fills $CACHE)"
"$REPRO" fig4 --json --quick --cache-dir "$CACHE" > "$WORK/cold.json" 2> "$WORK/cold.err"
cat "$WORK/cold.err"
[ "$(hits_of "$WORK/cold.err")" -eq 0 ] || { echo "cold run cannot hit"; exit 1; }
ls "$CACHE"/*.jsonl > /dev/null || { echo "cold run wrote no segment"; exit 1; }

echo "== warm run at --jobs 2 must hit, never miss, and diff clean"
"$REPRO" fig4 --json --quick --cache-dir "$CACHE" --jobs 2 > "$WORK/warm.json" 2> "$WORK/warm.err"
cat "$WORK/warm.err"
HITS=$(hits_of "$WORK/warm.err")
[ "$HITS" -gt 0 ] || { echo "warm run reported no cache hits"; exit 1; }
[ "$(misses_of "$WORK/warm.err")" = 0 ] || { echo "warm run missed a point the disk holds"; exit 1; }
diff -u "$WORK/cold.json" "$WORK/warm.json" || { echo "warm stdout diverged from cold"; exit 1; }
echo "   $HITS hits, stdout byte-identical"

echo "== corrupted segment: recompute, never corrupt"
SEG=$(ls "$CACHE"/*.jsonl | head -1)
SIZE=$(wc -c < "$SEG")
head -c "$((SIZE / 2))" "$SEG" > "$SEG.tmp" && mv "$SEG.tmp" "$SEG"
"$REPRO" fig4 --json --quick --cache-dir "$CACHE" > "$WORK/recover.json" 2> "$WORK/recover.err"
cat "$WORK/recover.err"
grep -q 'skipping corrupted segment' "$WORK/recover.err" \
  || { echo "damaged segment was not reported"; exit 1; }
diff -u "$WORK/cold.json" "$WORK/recover.json" || { echo "recovery stdout diverged"; exit 1; }

echo "== post-recovery run must be warm again"
"$REPRO" fig4 --json --quick --cache-dir "$CACHE" > "$WORK/rewarm.json" 2> "$WORK/rewarm.err"
[ "$(hits_of "$WORK/rewarm.err")" -gt 0 ] || { echo "re-flushed segment did not serve hits"; exit 1; }
diff -u "$WORK/cold.json" "$WORK/rewarm.json" || { echo "re-warm stdout diverged"; exit 1; }

echo "== --no-cache wins over --cache-dir"
"$REPRO" fig4 --json --quick --cache-dir "$CACHE" --no-cache \
  > "$WORK/nocache.json" 2> "$WORK/nocache.err"
if grep -q 'hbm-cache:' "$WORK/nocache.err"; then
  echo "--no-cache still printed a cache summary"; exit 1
fi
diff -u "$WORK/cold.json" "$WORK/nocache.json" || { echo "uncached stdout diverged"; exit 1; }

echo "== older kernel version: stale, never corrupt"
rm "$SEG"  # the segment step 2 damaged
grep -q '^{"v":3,' "$CACHE"/*.jsonl || { echo "no version-3 line to relabel"; exit 1; }
sed -i 's/^{"v":3,/{"v":2,/' "$CACHE"/*.jsonl
"$REPRO" fig4 --json --quick --cache-dir "$CACHE" > "$WORK/stale.json" 2> "$WORK/stale.err"
cat "$WORK/stale.err"
if grep -q 'skipping corrupted segment' "$WORK/stale.err"; then
  echo "an old-version segment was reported corrupted"; exit 1
fi
[ "$(hits_of "$WORK/stale.err")" -eq 0 ] || { echo "an old-version entry was served"; exit 1; }
diff -u "$WORK/cold.json" "$WORK/stale.json" || { echo "stale-version stdout diverged"; exit 1; }

echo "cache smoke: OK"
