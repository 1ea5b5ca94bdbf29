#!/bin/sh
# End-to-end smoke test of the ised daemon, as run by CI's service job:
#
#   1. boot ised on a free port (-addr-file handshake);
#   2. /v1/healthz answers ok;
#   3. /v1/solve answers a feasible schedule with "cached": false;
#   4. the identical re-solve answers "cached": true, and /metrics
#      shows cache_hits_total > 0 — the canonical cache actually
#      served it;
#   5. a client-sent X-Request-ID comes back in the response header and
#      body, the request is locatable at /debug/requests/{id} with its
#      admission verdict and cache outcome, and the -trace-log file
#      holds the same record after real traffic;
#   6. a burst of distinct solves against a second daemon with
#      -max-inflight 1 and no queue sheds at least one request with
#      429 + Retry-After — admission control actually refuses, it
#      doesn't queue without bound.
#
# Needs only curl and the go toolchain. Exits non-zero on the first
# broken expectation.
set -eu
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PIDS=""
CLEANED=0
# Idempotent cleanup, run on normal exit, on any failed assertion (the
# EXIT trap fires for `exit 1` under set -e too), and on delivered
# signals — without the signal traps a ^C or a CI runner's TERM during
# a mid-script wait could leave both daemons running. The guard makes
# the signal-then-EXIT double invocation harmless.
cleanup() {
	[ "$CLEANED" -eq 1 ] && return 0
	CLEANED=1
	for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
	for pid in $PIDS; do wait "$pid" 2>/dev/null || true; done
	rm -rf "$WORK"
}
trap cleanup EXIT
trap 'cleanup; exit 129' HUP
trap 'cleanup; exit 130' INT
trap 'cleanup; exit 143' TERM

fail() {
	echo "service_smoke: $*" >&2
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

go build -o "$WORK/ised" ./cmd/ised
go build -o "$WORK/isegen" ./cmd/isegen
"$WORK/isegen" -family mixed -n 16 -m 2 -seed 7 >"$WORK/inst.json"
printf '{"instance": %s}' "$(cat "$WORK/inst.json")" >"$WORK/req.json"

# Burst instances for the saturation check, distinct per (round, slot):
# different seeds -> different canonical keys, so neither the cache nor
# singleflight can absorb the burst, and a retry round can't be served
# by the previous round's cache entries.
for round in 1 2 3 4 5; do
	for seed in 1 2 3 4 5 6 7 8; do
		"$WORK/isegen" -family clustered -n 48 -m 2 -seed "$((round * 100 + seed))" \
			>"$WORK/burst.json"
		printf '{"instance": %s}' "$(cat "$WORK/burst.json")" \
			>"$WORK/breq$round-$seed.json"
	done
done

# --- main daemon -----------------------------------------------------
"$WORK/ised" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
	-timeout 10s -trace-log "$WORK/trace.jsonl" 2>"$WORK/ised.log" &
PIDS="$PIDS $!"
ADDR="$(wait_addr "$WORK/addr")"
BASE="http://$ADDR"
echo "service_smoke: daemon on $BASE"

# healthz
curl -sf "$BASE/v1/healthz" >"$WORK/health.json"
grep -q '"status": "ok"' "$WORK/health.json" || fail "healthz not ok: $(cat "$WORK/health.json")"

# first solve: fresh
curl -sf -d @"$WORK/req.json" "$BASE/v1/solve" >"$WORK/solve1.json"
grep -Eq '"cached": ?false' "$WORK/solve1.json" || fail "first solve claims cached"
grep -q '"schedule"' "$WORK/solve1.json" || fail "first solve has no schedule"

# identical re-solve: from the cache
curl -sf -d @"$WORK/req.json" "$BASE/v1/solve" >"$WORK/solve2.json"
grep -Eq '"cached": ?true' "$WORK/solve2.json" || fail "re-solve missed the cache"

# the cache hit is visible on /metrics
curl -sf "$BASE/metrics" >"$WORK/metrics.txt"
HITS="$(awk '$1 == "cache_hits_total" { print $2 }' "$WORK/metrics.txt")"
[ "${HITS:-0}" -gt 0 ] 2>/dev/null || fail "cache_hits_total = '${HITS:-}' after a cached re-solve"
echo "service_smoke: cached re-solve confirmed (cache_hits_total=$HITS)"

# --- request tracing -------------------------------------------------
# A client-sent X-Request-ID is echoed end to end: response header,
# response body, the flight recorder at /debug/requests/{id}, and the
# -trace-log JSONL file.
RID="smoke-req-1"
curl -sf -H "X-Request-Id: $RID" -D "$WORK/solve3.head" \
	-d @"$WORK/req.json" "$BASE/v1/solve" >"$WORK/solve3.json"
grep -qi "^x-request-id: $RID" "$WORK/solve3.head" || fail "X-Request-ID not echoed in header"
grep -Eq "\"request_id\": ?\"$RID\"" "$WORK/solve3.json" || fail "request_id missing from response body"

curl -sf "$BASE/debug/requests/$RID" >"$WORK/flight.json"
grep -q "\"id\": \"$RID\"" "$WORK/flight.json" || fail "request not in flight recorder: $(cat "$WORK/flight.json")"
grep -q '"admission": "bypass"' "$WORK/flight.json" || fail "cached re-solve record lacks admission bypass"
grep -q '"cache": "hit"' "$WORK/flight.json" || fail "cached re-solve record lacks cache hit"
curl -sf "$BASE/debug/requests?route=solve" >"$WORK/flights.json"
grep -q '"slo"' "$WORK/flights.json" || fail "/debug/requests missing SLO status"

# The trace log fills within a flush interval (200ms) of real traffic.
i=0
while ! grep -qs "\"id\":\"$RID\"" "$WORK/trace.jsonl"; do
	i=$((i + 1))
	[ "$i" -le 50 ] || fail "trace log never recorded $RID: $(wc -c <"$WORK/trace.jsonl" 2>/dev/null || echo missing) bytes"
	sleep 0.1
done
[ -s "$WORK/trace.jsonl" ] || fail "trace log empty after traffic"
grep -q '"crc":' "$WORK/trace.jsonl" || fail "trace log lines not CRC-framed"
echo "service_smoke: request-ID propagation + trace log confirmed ($RID)"

# --- saturation daemon: one slot, no queue ---------------------------
"$WORK/ised" -addr 127.0.0.1:0 -addr-file "$WORK/addr2" \
	-max-inflight 1 -max-queue -1 -timeout 10s 2>"$WORK/ised2.log" &
PIDS="$PIDS $!"
ADDR2="$(wait_addr "$WORK/addr2")"
BASE2="http://$ADDR2"

# A few rounds guard against all solves finishing too fast to overlap
# on a loaded runner.
SHED=0
for round in 1 2 3 4 5; do
	CURLS=""
	for seed in 1 2 3 4 5 6 7 8; do
		curl -s -o /dev/null -D "$WORK/bhead$seed" -w '%{http_code}\n' \
			-d @"$WORK/breq$round-$seed.json" "$BASE2/v1/solve" >"$WORK/bcode$seed" &
		CURLS="$CURLS $!"
	done
	for pid in $CURLS; do wait "$pid" 2>/dev/null || true; done
	for seed in 1 2 3 4 5 6 7 8; do
		if grep -q '^429$' "$WORK/bcode$seed" 2>/dev/null; then
			SHED=1
			grep -qi '^retry-after:' "$WORK/bhead$seed" || fail "429 without Retry-After"
		fi
	done
	[ "$SHED" -eq 1 ] && break
done
[ "$SHED" -eq 1 ] || fail "no request shed across 5 saturation rounds"
grep -qi 'retry-after' "$WORK"/bhead* || fail "Retry-After header missing"
echo "service_smoke: saturation produced 429 + Retry-After"

# shed count visible on the saturated daemon's metrics
curl -sf "$BASE2/metrics" | awk '$1 == "service_shed_total" && $2 > 0 { ok = 1 } END { exit !ok }' ||
	fail "service_shed_total not incremented"

echo "service_smoke: OK"
