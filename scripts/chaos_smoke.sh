#!/bin/sh
# Kill-test of the crash-safe state layer, as run by CI's chaos job:
#
#   1. an ised daemon with -cache-file and periodic snapshots is
#      SIGKILLed (no drain, no final save); a replacement booted from
#      the snapshot serves the prior solve with "cached": true and
#      cache_restore_entries_total > 0;
#   2. the snapshot is damaged on disk (torn tail); the daemon still
#      boots, still answers solves, and counts the damage in
#      cache_restore_corrupt_total;
#   3. an isebatch -checkpoint run is SIGKILLed mid-flight; re-running
#      the same command resumes from the journal and the final CSV
#      matches an uninterrupted run row-for-row (modulo the wall-clock
#      column);
#   4. SIGTERM with -drain-wait flips healthz to 503 + "draining": true
#      before the listener closes.
#
# Needs only curl and the go toolchain. Exits non-zero on the first
# broken expectation. The in-process half of these guarantees lives in
# chaos_conformance_test.go.
set -eu
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PIDS=""
cleanup() {
	for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
	for pid in $PIDS; do wait "$pid" 2>/dev/null || true; done
	rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
	echo "chaos_smoke: $*" >&2
	exit 1
}

wait_addr() { # wait_addr FILE -> prints host:port
	i=0
	while [ ! -s "$1" ]; do
		i=$((i + 1))
		[ "$i" -le 100 ] || fail "daemon never wrote $1"
		sleep 0.1
	done
	cat "$1"
}

metric() { # metric BASE NAME -> prints the value (0 if absent)
	curl -sf "$1/metrics" | awk -v n="$2" '$1 == n { v = $2 } END { print v + 0 }'
}

fsize() { # bytes in FILE, 0 if absent
	(wc -c <"$1") 2>/dev/null || echo 0
}

flines() { # lines in FILE, 0 if absent
	(wc -l <"$1") 2>/dev/null || echo 0
}

# Strip the nondeterministic wall-clock column (field 8: ms) so batch
# reports can be compared row-for-row.
strip_ms() {
	awk -F, 'BEGIN { OFS = "," } { $8 = ""; print }' "$1"
}

go build -o "$WORK/ised" ./cmd/ised
go build -o "$WORK/isebatch" ./cmd/isebatch
go build -o "$WORK/isegen" ./cmd/isegen
"$WORK/isegen" -family mixed -n 16 -m 2 -seed 7 >"$WORK/inst.json"
printf '{"instance": %s}' "$(cat "$WORK/inst.json")" >"$WORK/req.json"
SNAP="$WORK/cache.snap"

# --- 1. SIGKILL the daemon; restart from the periodic snapshot -------
"$WORK/ised" -addr 127.0.0.1:0 -addr-file "$WORK/addr1" \
	-cache-file "$SNAP" -cache-save-interval 200ms \
	-timeout 10s 2>"$WORK/ised1.log" &
KILLPID=$!
PIDS="$PIDS $KILLPID"
BASE="http://$(wait_addr "$WORK/addr1")"

curl -sf -d @"$WORK/req.json" "$BASE/v1/solve" >"$WORK/solve1.json"
grep -Eq '"cached": ?false' "$WORK/solve1.json" || fail "first solve claims cached"
grep -q '"schedule"' "$WORK/solve1.json" || fail "first solve has no schedule"

# Wait for a periodic save that contains the entry (the header alone
# is 8 bytes; a real entry pushes the snapshot well past that).
i=0
while [ "$(fsize "$SNAP")" -le 64 ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || fail "periodic saver never snapshotted the entry"
	sleep 0.1
done

kill -9 "$KILLPID"
wait "$KILLPID" 2>/dev/null || true
echo "chaos_smoke: daemon SIGKILLed with $(wc -c <"$SNAP") snapshot bytes on disk"

"$WORK/ised" -addr 127.0.0.1:0 -addr-file "$WORK/addr2" \
	-cache-file "$SNAP" -timeout 10s 2>"$WORK/ised2.log" &
PIDS="$PIDS $!"
BASE2="http://$(wait_addr "$WORK/addr2")"

curl -sf -d @"$WORK/req.json" "$BASE2/v1/solve" >"$WORK/solve2.json"
grep -Eq '"cached": ?true' "$WORK/solve2.json" ||
	fail "restarted daemon did not serve the prior hit from its snapshot"
RESTORED="$(metric "$BASE2" cache_restore_entries_total)"
[ "$RESTORED" -gt 0 ] || fail "cache_restore_entries_total = $RESTORED after restore"
echo "chaos_smoke: restart served the prior solve from cache (restored=$RESTORED)"

# --- 2. damaged snapshot: boot survives, damage is counted -----------
SIZE="$(wc -c <"$SNAP")"
head -c "$((SIZE - 3))" "$SNAP" >"$SNAP.torn" && mv "$SNAP.torn" "$SNAP"
"$WORK/ised" -addr 127.0.0.1:0 -addr-file "$WORK/addr3" \
	-cache-file "$SNAP" -timeout 10s 2>"$WORK/ised3.log" &
PIDS="$PIDS $!"
BASE3="http://$(wait_addr "$WORK/addr3")"

curl -sf "$BASE3/v1/healthz" | grep -q '"status": "ok"' ||
	fail "daemon with a torn snapshot is not healthy"
CORRUPT="$(metric "$BASE3" cache_restore_corrupt_total)"
[ "$CORRUPT" -gt 0 ] || fail "cache_restore_corrupt_total = $CORRUPT after torn snapshot"
curl -sf -d @"$WORK/req.json" "$BASE3/v1/solve" >"$WORK/solve3.json"
grep -q '"schedule"' "$WORK/solve3.json" || fail "torn-snapshot daemon cannot solve"
echo "chaos_smoke: torn snapshot survived (corrupt=$CORRUPT), daemon still serves"

# --- 3. SIGKILL isebatch mid-run; resume from the checkpoint ---------
mkdir "$WORK/corpus"
for seed in 1 2 3 4 5 6 7 8; do
	"$WORK/isegen" -family mixed -n 20 -m 2 -seed "$seed" \
		>"$WORK/corpus/inst$seed.json"
done

# Baseline: an uninterrupted run of the identical command.
"$WORK/isebatch" -workers 1 -checkpoint "$WORK/ck-full.jsonl" \
	-csv "$WORK/full.csv" "$WORK/corpus" >/dev/null 2>&1 ||
	fail "baseline batch run failed"

# Doomed run: same corpus, killed as soon as the journal has rows.
"$WORK/isebatch" -workers 1 -checkpoint "$WORK/ck.jsonl" \
	-csv "$WORK/doomed.csv" "$WORK/corpus" >/dev/null 2>"$WORK/doomed.log" &
BATCHPID=$!
PIDS="$PIDS $BATCHPID"
i=0
while [ "$(flines "$WORK/ck.jsonl")" -lt 3 ]; do
	i=$((i + 1))
	[ "$i" -le 200 ] || break # finished before we could kill it: still a valid resume
	sleep 0.05
done
kill -9 "$BATCHPID" 2>/dev/null || true
wait "$BATCHPID" 2>/dev/null || true
echo "chaos_smoke: batch SIGKILLed with $(flines "$WORK/ck.jsonl") journal lines"

# Resume: same command again; checkpointed rows replay, the rest solve.
"$WORK/isebatch" -workers 1 -checkpoint "$WORK/ck.jsonl" \
	-csv "$WORK/resumed.csv" "$WORK/corpus" >/dev/null 2>"$WORK/resume.log" ||
	fail "resumed batch run failed"
strip_ms "$WORK/full.csv" >"$WORK/full.stripped"
strip_ms "$WORK/resumed.csv" >"$WORK/resumed.stripped"
cmp -s "$WORK/full.stripped" "$WORK/resumed.stripped" || {
	diff "$WORK/full.stripped" "$WORK/resumed.stripped" >&2 || true
	fail "resumed report differs from the uninterrupted run"
}
echo "chaos_smoke: resumed batch report matches the uninterrupted run"

# --- 4. drain: SIGTERM flips healthz before the listener closes ------
"$WORK/ised" -addr 127.0.0.1:0 -addr-file "$WORK/addr4" \
	-drain-wait 2s -timeout 10s 2>"$WORK/ised4.log" &
DRAINPID=$!
PIDS="$PIDS $DRAINPID"
BASE4="http://$(wait_addr "$WORK/addr4")"
curl -sf "$BASE4/v1/healthz" | grep -q '"status": "ok"' || fail "pre-drain healthz not ok"

kill -TERM "$DRAINPID"
DRAINING=0
i=0
while [ "$i" -le 30 ]; do
	CODE="$(curl -s -o "$WORK/drain.json" -w '%{http_code}' "$BASE4/v1/healthz" || true)"
	if [ "$CODE" = "503" ] && grep -q '"draining": true' "$WORK/drain.json"; then
		DRAINING=1
		break
	fi
	i=$((i + 1))
	sleep 0.05
done
[ "$DRAINING" -eq 1 ] || fail "healthz never reported 503 + draining after SIGTERM"
wait "$DRAINPID" 2>/dev/null || true
echo "chaos_smoke: drain sequence confirmed (503 + draining before exit)"

echo "chaos_smoke: OK"
