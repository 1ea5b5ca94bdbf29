#!/bin/sh
# End-to-end smoke test of the isedfleet router, as run by CI's fleet
# job:
#
#   1. boot three ised backends and one isedfleet router over them
#      (all via the -addr-file handshake, roster from a watched JSON
#      file);
#   2. the router's /v1/healthz reports 3 healthy nodes on a ring of
#      3 x 128 virtual points;
#   3. a solve through the router lands on exactly one backend
#      (X-Fleet-Node), and the identical re-solve is a cache hit on
#      the SAME backend — cache affinity over HTTP, not just in tests;
#   4. a uniformly shifted variant of the instance (same canonical
#      key) also hits that node's cache: the fleet solved the
#      equivalence class once;
#   5. under a stream of solves, SIGKILL the backend that owns the
#      probe instance. The stream keeps succeeding, the router ejects
#      the corpse (healthz degraded, fleet_eject_total=1), and a key
#      owned by a survivor still routes to that same survivor — the
#      ring moved only the dead node's keys;
#   6. the probe instance — solved BEFORE the kill — is still a cache
#      HIT: the router peeks the key's ring replica, which holds the
#      write-behind copy, and answers "cached": true with
#      X-Fleet-Route: replica-hit. The fleet never re-runs a solve it
#      already paid for;
#   7. restart the killed backend on its old address. The prober takes
#      it through the warming state — hinted handoff + snapshot-diff
#      warm transfer — and once healthy the probe instance routes back
#      to its affinity owner and hits the owner's (restored) cache.
#
# Needs only curl, awk, and the go toolchain. Exits non-zero on the
# first broken expectation.
set -eu
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PIDS=""
CLEANED=0
# Idempotent cleanup, run on normal exit, on failed assertions, and on
# delivered signals (see service_smoke.sh for the rationale). One of
# the backends may already be SIGKILLed by the test itself; kill/wait
# on a reaped pid is harmless under `|| true`.
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
	echo "fleet_smoke: $*" >&2
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

header() { # header FILE lowercase-name -> prints the value, trimmed
	awk -v n="$2" 'BEGIN { FS = ": " } tolower($1) == n { print $2 }' "$1" |
		tr -d '\r\n'
}

go build -o "$WORK/ised" ./cmd/ised
go build -o "$WORK/isedfleet" ./cmd/isedfleet
go build -o "$WORK/isegen" ./cmd/isegen

# --- backends --------------------------------------------------------
for i in 1 2 3; do
	"$WORK/ised" -addr 127.0.0.1:0 -addr-file "$WORK/baddr$i" \
		-timeout 10s 2>"$WORK/ised$i.log" &
	eval "BPID$i=\$!"
	PIDS="$PIDS $!"
done
B1="$(wait_addr "$WORK/baddr1")"
B2="$(wait_addr "$WORK/baddr2")"
B3="$(wait_addr "$WORK/baddr3")"

cat >"$WORK/roster.json" <<EOF
{"nodes": [
  {"name": "n1", "url": "http://$B1"},
  {"name": "n2", "url": "http://$B2"},
  {"name": "n3", "url": "http://$B3"}
]}
EOF

# --- router ----------------------------------------------------------
# Aggressive probe/eject settings so the kill is detected within a
# couple hundred milliseconds instead of the operator-friendly default.
# Replication is pinned to its default (2) and hints spill to disk so
# the readmit phase exercises the full durability path.
"$WORK/isedfleet" -addr 127.0.0.1:0 -addr-file "$WORK/faddr" \
	-roster "$WORK/roster.json" -roster-interval 200ms \
	-probe-interval 100ms -probe-timeout 1s \
	-fail-after 2 -readmit-after 1 \
	-replication 2 -hint-dir "$WORK/hints" 2>"$WORK/fleet.log" &
PIDS="$PIDS $!"
FADDR="$(wait_addr "$WORK/faddr")"
BASE="http://$FADDR"
echo "fleet_smoke: router on $BASE over n1=$B1 n2=$B2 n3=$B3"

curl -sf "$BASE/v1/healthz" >"$WORK/health.json"
grep -q '"status": "ok"' "$WORK/health.json" || fail "healthz not ok: $(cat "$WORK/health.json")"
grep -q '"healthy_nodes": 3' "$WORK/health.json" || fail "healthz not 3 nodes: $(cat "$WORK/health.json")"
grep -q '"ring_points": 384' "$WORK/health.json" || fail "healthz ring_points not 3 nodes x 128: $(cat "$WORK/health.json")"

# --- cache affinity over HTTP ----------------------------------------
"$WORK/isegen" -family mixed -n 16 -m 2 -seed 7 >"$WORK/inst.json"
printf '{"instance": %s}' "$(cat "$WORK/inst.json")" >"$WORK/req.json"

curl -sf -D "$WORK/h1" -d @"$WORK/req.json" "$BASE/v1/solve" >"$WORK/solve1.json"
grep -Eq '"cached": ?false' "$WORK/solve1.json" || fail "first solve claims cached"
grep -q '"schedule"' "$WORK/solve1.json" || fail "first solve has no schedule"
OWNER="$(header "$WORK/h1" x-fleet-node)"
[ -n "$OWNER" ] || fail "no X-Fleet-Node on the routed response"
ROUTE="$(header "$WORK/h1" x-fleet-route)"
[ "$ROUTE" = "affinity" ] || fail "healthy-fleet route = '$ROUTE', want affinity"

curl -sf -D "$WORK/h2" -d @"$WORK/req.json" "$BASE/v1/solve" >"$WORK/solve2.json"
grep -Eq '"cached": ?true' "$WORK/solve2.json" || fail "re-solve missed the owner's cache"
[ "$(header "$WORK/h2" x-fleet-node)" = "$OWNER" ] || fail "re-solve routed off the owner"

# A uniformly shifted twin (same canonical key) must hit the same cache
# entry on the same node.
awk '{
	out = ""
	# Consume left to right so the rewritten text is never re-matched.
	while (match($0, /"(release|deadline)": [0-9]+/)) {
		seg = substr($0, RSTART, RLENGTH)
		colon = index(seg, ":")
		v = substr(seg, colon + 2) + 500
		out = out substr($0, 1, RSTART - 1) substr(seg, 1, colon + 1) v
		$0 = substr($0, RSTART + RLENGTH)
	}
	print out $0
}' "$WORK/inst.json" >"$WORK/shifted.json"
printf '{"instance": %s}' "$(cat "$WORK/shifted.json")" >"$WORK/sreq.json"
curl -sf -D "$WORK/h3" -d @"$WORK/sreq.json" "$BASE/v1/solve" >"$WORK/solve3.json"
grep -Eq '"cached": ?true' "$WORK/solve3.json" || fail "shifted twin missed the cache"
[ "$(header "$WORK/h3" x-fleet-node)" = "$OWNER" ] || fail "shifted twin routed off the owner"
echo "fleet_smoke: cache affinity confirmed (owner $OWNER serves the equivalence class)"

# A survivor-owned key, for the post-kill affinity check: find an
# instance owned by some node other than $OWNER.
SURV_NODE=""
for seed in 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26; do
	"$WORK/isegen" -family mixed -n 12 -m 2 -seed "$seed" >"$WORK/sv.json"
	printf '{"instance": %s}' "$(cat "$WORK/sv.json")" >"$WORK/svreq.json"
	curl -sf -D "$WORK/svh" -d @"$WORK/svreq.json" "$BASE/v1/solve" >/dev/null
	SURV_NODE="$(header "$WORK/svh" x-fleet-node)"
	if [ -n "$SURV_NODE" ] && [ "$SURV_NODE" != "$OWNER" ]; then
		cp "$WORK/svreq.json" "$WORK/survivor-req.json"
		break
	fi
	SURV_NODE=""
done
[ -n "$SURV_NODE" ] || fail "no instance owned by a survivor in 16 draws"

# --- kill the owner mid-load -----------------------------------------
# Background stream of distinct solves; each must end in HTTP 200
# (possibly after the client-side retry below), recorded per request.
stream() { # stream SLOT
	for n in 1 2 3 4 5 6 7 8 9 10; do
		"$WORK/isegen" -family clustered -n 24 -m 2 -seed "$((900 + $1 * 50 + n))" >"$WORK/st$1-$n.json"
		printf '{"instance": %s}' "$(cat "$WORK/st$1-$n.json")" >"$WORK/streq$1-$n.json"
		code=000
		for attempt in 1 2 3; do
			code="$(curl -s -o /dev/null -w '%{http_code}' \
				-d @"$WORK/streq$1-$n.json" "$BASE/v1/solve" || echo 000)"
			[ "$code" = "200" ] && break
			sleep 0.2
		done
		echo "$code" >>"$WORK/stream$1.codes"
	done
}
for slot in 1 2 3 4; do
	stream "$slot" &
	PIDS="$PIDS $!"
	eval "SPID$slot=\$!"
done

# Let the stream flow, then SIGKILL the owner of the probe instance.
# Wait until the streams have finished at least 4 requests between
# them, so the kill lands while their load is in flight: all 40 can
# finish in about half a second, so a fixed sleep may kill after the
# load is over, when nothing can detour.
i=0
until [ "$(cat "$WORK"/stream*.codes 2>/dev/null | wc -l)" -ge 4 ]; do
	i=$((i + 1))
	[ "$i" -le 200 ] || fail "streamed solves never started"
	sleep 0.05
done
case "$OWNER" in
n1) eval "kill -9 \$BPID1" ;;
n2) eval "kill -9 \$BPID2" ;;
n3) eval "kill -9 \$BPID3" ;;
*) fail "unknown owner node '$OWNER'" ;;
esac
echo "fleet_smoke: SIGKILLed $OWNER mid-load"

for slot in 1 2 3 4; do
	eval "wait \$SPID$slot" || true
done
for slot in 1 2 3 4; do
	[ "$(grep -c '^200$' "$WORK/stream$slot.codes")" -eq 10 ] ||
		fail "stream $slot saw non-200s across the kill: $(tr '\n' ' ' <"$WORK/stream$slot.codes")"
done
echo "fleet_smoke: 40/40 streamed solves succeeded across the kill"

# The router must have ejected the corpse by now (probes every 100ms,
# two failures eject); poll briefly to absorb scheduler jitter.
i=0
until curl -sf "$BASE/v1/healthz" | grep -q '"status": "degraded"'; do
	i=$((i + 1))
	[ "$i" -le 50 ] || fail "router never ejected the killed backend"
	sleep 0.1
done
curl -sf "$BASE/v1/healthz" >"$WORK/health2.json"
grep -q '"healthy_nodes": 2' "$WORK/health2.json" || fail "degraded healthz: $(cat "$WORK/health2.json")"

# The probe instance (owned by the corpse, solved before the kill) is
# still a cache HIT: the router peeks the key's ring replica — which
# holds the asynchronous write-behind copy — and relays its cached
# schedule without admitting a solve anywhere.
curl -sf -D "$WORK/h4" -d @"$WORK/req.json" "$BASE/v1/solve" >"$WORK/solve4.json"
grep -q '"schedule"' "$WORK/solve4.json" || fail "post-kill solve has no schedule"
grep -Eq '"cached": ?true' "$WORK/solve4.json" ||
	fail "pre-kill key re-solved after the owner died: the replica write never landed"
DETOUR="$(header "$WORK/h4" x-fleet-node)"
[ -n "$DETOUR" ] && [ "$DETOUR" != "$OWNER" ] || fail "post-kill solve served by '$DETOUR'"
[ "$(header "$WORK/h4" x-fleet-route)" = "replica-hit" ] ||
	fail "post-kill route = '$(header "$WORK/h4" x-fleet-route)', want replica-hit"
echo "fleet_smoke: pre-kill key served from replica cache ($DETOUR, no re-solve)"

# Survivors keep their own keys: the survivor-owned instance still
# routes to the same node it did before the kill.
curl -sf -D "$WORK/h5" -d @"$WORK/survivor-req.json" "$BASE/v1/solve" >"$WORK/solve5.json"
grep -Eq '"cached": ?true' "$WORK/solve5.json" || fail "survivor-owned re-solve missed its cache"
[ "$(header "$WORK/h5" x-fleet-node)" = "$SURV_NODE" ] ||
	fail "survivor key moved: $(header "$WORK/h5" x-fleet-node) != $SURV_NODE"
echo "fleet_smoke: survivors kept affinity ($SURV_NODE still owns its key)"

# The ejection, the detours, and the replication layer's work are all
# visible on the router's /metrics.
curl -sf "$BASE/metrics" >"$WORK/fmetrics.txt"
awk '$1 == "fleet_eject_total" && $2 >= 1 { ok = 1 } END { exit !ok }' "$WORK/fmetrics.txt" ||
	fail "fleet_eject_total not incremented"
awk '/^fleet_spillover_total\{/ { s += $2 } END { exit !(s > 0) }' "$WORK/fmetrics.txt" ||
	fail "no fleet_spillover_total counted across the kill"
awk '$1 == "fleet_replicate_sent_total" && $2 >= 1 { ok = 1 } END { exit !ok }' "$WORK/fmetrics.txt" ||
	fail "fleet_replicate_sent_total not incremented: write-behind never delivered"
awk '$1 == "fleet_replica_hit_total" && $2 >= 1 { ok = 1 } END { exit !ok }' "$WORK/fmetrics.txt" ||
	fail "fleet_replica_hit_total not incremented"

# --- readmit with warm transfer --------------------------------------
# Restart the killed backend on its old address: the prober must take
# it through warming (hint replay + snapshot-diff transfer) and back to
# healthy, after which the probe key routes to its affinity owner again
# and hits the restored cache.
case "$OWNER" in
n1) OADDR="$B1" ;;
n2) OADDR="$B2" ;;
n3) OADDR="$B3" ;;
esac
"$WORK/ised" -addr "$OADDR" -addr-file "$WORK/baddr-re" \
	-timeout 10s 2>"$WORK/ised-re.log" &
PIDS="$PIDS $!"
wait_addr "$WORK/baddr-re" >/dev/null
echo "fleet_smoke: restarted $OWNER on $OADDR"

i=0
until curl -sf "$BASE/v1/healthz" | grep -q '"healthy_nodes": 3'; do
	i=$((i + 1))
	[ "$i" -le 150 ] || fail "router never readmitted the restarted backend"
	sleep 0.1
done
curl -sf "$BASE/v1/healthz" | grep -q '"status": "ok"' || fail "healthz degraded after readmit"

curl -sf "$BASE/metrics" >"$WORK/fmetrics2.txt"
awk '$1 == "fleet_warm_transfer_total" && $2 >= 1 { ok = 1 } END { exit !ok }' "$WORK/fmetrics2.txt" ||
	fail "fleet_warm_transfer_total not incremented on readmit"
awk '$1 == "fleet_warm_transfer_entries_total" && $2 >= 1 { ok = 1 } END { exit !ok }' "$WORK/fmetrics2.txt" ||
	fail "warm transfer shipped no entries"

# The probe key is back on its owner — and the owner, freshly
# restarted with an empty cache of its own, answers from the entries
# the warm transfer restored.
curl -sf -D "$WORK/h6" -d @"$WORK/req.json" "$BASE/v1/solve" >"$WORK/solve6.json"
grep -Eq '"cached": ?true' "$WORK/solve6.json" ||
	fail "post-readmit solve missed: warm transfer did not restore the key"
[ "$(header "$WORK/h6" x-fleet-node)" = "$OWNER" ] ||
	fail "post-readmit solve served by '$(header "$WORK/h6" x-fleet-node)', want $OWNER"
[ "$(header "$WORK/h6" x-fleet-route)" = "affinity" ] ||
	fail "post-readmit route = '$(header "$WORK/h6" x-fleet-route)', want affinity"
echo "fleet_smoke: warm transfer restored $OWNER's cache (affinity hit after readmit)"

echo "fleet_smoke: OK"
