#!/bin/sh
# Runs the hot-path benchmarks and records their headline numbers in
# BENCH_lp.json at the repo root. The x-speedup metrics are quotients
# (old path time / new path time) reported by the benchmarks
# themselves; the acceptance floor for T1LongWindowN40/HotPath is 2.0.
# BenchmarkServedLadder (calib.SolveRobust over the served corpus)
# records its ns/op, B/op, allocs/op and its deterministic pivots/op
# and nodes/op in a served_ladder block, beside the B/op ceiling that
# scripts/benchgate.sh enforces. BenchmarkExactTail (the exact rung's
# search on components that once took 100 000+ nodes) records its
# ns/op, allocs/op and deterministic nodes/op in an exact_tail block.
# BenchmarkHeuristicPostPass (heur.Lazy, improve.Run and ise.Compact on
# every time component of the 432-instance family corpus) records its
# ns/op, B/op and allocs/op in a heuristic_post_pass block.
# A telemetry block from one instrumented parallel solve on the
# production LP path (isegen clustered -> isesolve -par 4 -metrics-out)
# rides along so the report also captures what the solver *did*:
# pivots, LP solves, components, pool occupancy. A second report,
# BENCH_service.json, records the ised daemon's end-to-end request
# numbers (fresh-solve mix and pure cache hits) from the
# internal/server benchmarks, each the median of five runs.
#
# Usage: ./scripts/bench.sh [benchtime]   (default 5x)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-5x}"
OUT=BENCH_lp.json
RAW="$(mktemp)"
MET="$(mktemp)"
INST="$(mktemp)"
trap 'rm -f "$RAW" "$MET" "$INST"' EXIT

# No pipe into tee: a pipeline would mask go test's exit status under
# plain sh and a failed run would clobber the previous numbers.
go test -run XXX -bench 'BenchmarkT1LongWindowN40|BenchmarkT8Scaling|BenchmarkServedLadder|BenchmarkExactTail|BenchmarkHeuristicPostPass' \
	-benchtime "$BENCHTIME" . >"$RAW" 2>&1 || {
	cat "$RAW"
	echo "bench run failed; $OUT left untouched" >&2
	exit 1
}
cat "$RAW"

# One instrumented end-to-end solve on a T1-shaped clustered instance;
# the metrics JSON is one scalar per line, so awk folds it in below.
go run ./cmd/isegen -family clustered -n 40 -m 4 -seed 140 >"$INST"
go run ./cmd/isesolve -par 4 -metrics-out "$MET" "$INST" >/dev/null || {
	echo "instrumented solve failed; $OUT left untouched" >&2
	exit 1
}

# jnum guards every interpolated number: a missing benchmark or metric
# becomes JSON null instead of an empty field (the bare ternary used
# before also swallowed legitimate zeros).
# A sub-benchmark is keyed by its last name component (Seed, HotPath,
# ...), a top-level one by its full name.
awk -v stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" '
function jnum(v) { return v == "" ? "null" : v }
function val(i) { return $(i - 1) }
FNR == NR && /^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/.*\//, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op" && val(i) + 0 > 0) ns[name] = val(i)
		if ($i == "x-speedup") speedup[name] = val(i)
		if ($i == "B/op") bytes[name] = val(i)
		if ($i == "allocs/op") allocs[name] = val(i)
		if ($i == "pivots/op") pivots[name] = val(i)
		if ($i == "nodes/op") nodes[name] = val(i)
	}
	next
}
FNR != NR && /^  "[a-z_]+": [0-9.eE+-]+,?$/ {
	key = $1
	gsub(/[":]/, "", key)
	v = $2
	gsub(/,/, "", v)
	metric[key] = v
}
END {
	printf "{\n"
	printf "  \"date\": \"%s\",\n", stamp
	printf "  \"go\": \"%s\",\n", gover
	printf "  \"t1_long_window_n40\": {\n"
	printf "    \"seed_ns\": %s,\n", jnum(ns["Seed"])
	printf "    \"end_to_end_speedup\": %s,\n", jnum(speedup["HotPath"])
	printf "    \"required_min\": 2.0\n"
	printf "  },\n"
	printf "  \"t8_scaling\": {\n"
	printf "    \"decomposed_vs_monolithic\": %s\n", jnum(speedup["DecomposedVsMonolithic"])
	printf "  },\n"
	sl = "BenchmarkServedLadder"
	printf "  \"served_ladder\": {\n"
	printf "    \"ns_per_op\": %s,\n", jnum(ns[sl])
	printf "    \"bytes_per_op\": %s,\n", jnum(bytes[sl])
	printf "    \"allocs_per_op\": %s,\n", jnum(allocs[sl])
	printf "    \"pivots_per_op\": %s,\n", jnum(pivots[sl])
	printf "    \"nodes_per_op\": %s,\n", jnum(nodes[sl])
	printf "    \"bytes_ceiling\": 24000000\n"
	printf "  },\n"
	et = "BenchmarkExactTail"
	printf "  \"exact_tail\": {\n"
	printf "    \"ns_per_op\": %s,\n", jnum(ns[et])
	printf "    \"allocs_per_op\": %s,\n", jnum(allocs[et])
	printf "    \"nodes_per_op\": %s\n", jnum(nodes[et])
	printf "  },\n"
	hp = "BenchmarkHeuristicPostPass"
	printf "  \"heuristic_post_pass\": {\n"
	printf "    \"ns_per_op\": %s,\n", jnum(ns[hp])
	printf "    \"bytes_per_op\": %s,\n", jnum(bytes[hp])
	printf "    \"allocs_per_op\": %s\n", jnum(allocs[hp])
	printf "  },\n"
	printf "  \"telemetry\": {\n"
	printf "    \"lp_pivots\": %s,\n", jnum(metric["lp_pivots_total"])
	printf "    \"tise_resolves\": %s,\n", jnum(metric["tise_resolves_total"])
	printf "    \"decomp_components\": %s,\n", jnum(metric["decomp_components"])
	printf "    \"decomp_pool_busy_max\": %s\n", jnum(metric["decomp_pool_busy_max"])
	printf "  }\n"
	printf "}\n"
}' "$RAW" "$MET" >"$OUT"

# Smoke-test the report before declaring success: the old awk could
# emit syntactically invalid JSON when a field came up empty.
go run ./cmd/isebench -check "$OUT" >/dev/null

echo "wrote $OUT:"
cat "$OUT"

# --- service throughput ---------------------------------------------
# End-to-end ised daemon numbers (request decode + canonicalize +
# cache + admission + solve + response encode) into BENCH_service.json:
# the mixed fresh/cached solve path and the pure cache-hit floor. Same
# guard rails as above — a failed run leaves the previous report
# untouched. The iteration count is fixed and much higher than the LP
# benchmarks' (default 2000x, matching scripts/benchgate.sh): the
# alloc numbers only mean anything once the pools are warm and the
# rotation's fresh solves have amortized away. One 2000x run's ns/op
# can land twice as high as the next few runs', so each benchmark runs
# five times and every number recorded is the median of its runs,
# taken per unit.
SOUT=BENCH_service.json
SRAW="$(mktemp)"
SERVICE_BENCHTIME="${SERVICE_BENCHTIME:-2000x}"
trap 'rm -f "$RAW" "$MET" "$INST" "$SRAW"' EXIT

go test -run XXX -bench 'BenchmarkServiceSolve|BenchmarkServiceCacheHit' \
	-benchtime "$SERVICE_BENCHTIME" -count 5 ./internal/server >"$SRAW" 2>&1 || {
	cat "$SRAW"
	echo "service bench run failed; $SOUT left untouched" >&2
	exit 1
}
cat "$SRAW"

# median(key) is the median of the values collected under key (the
# lower middle one for an even count), "" when there are none.
awk -v stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" '
function jnum(v) { return v == "" ? "null" : v }
function add(key, v) { vals[key, ++cnt[key]] = v + 0 }
function median(key,    k, i, j, t, a) {
	k = cnt[key]
	if (k == 0) return ""
	for (i = 1; i <= k; i++) a[i] = vals[key, i]
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	return a[int((k + 1) / 2)]
}
/^Benchmark/ {
	name = $1
	sub(/^Benchmark/, "", name)
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op" && $(i - 1) + 0 > 0) add(name SUBSEP "ns", $(i - 1))
		if ($i == "B/op") add(name SUBSEP "bytes", $(i - 1))
		if ($i == "allocs/op") add(name SUBSEP "allocs", $(i - 1))
	}
}
END {
	for (b = 1; b <= 2; b++) {
		name = b == 1 ? "ServiceSolve" : "ServiceCacheHit"
		ns[name] = median(name SUBSEP "ns")
		bytes[name] = median(name SUBSEP "bytes")
		allocs[name] = median(name SUBSEP "allocs")
	}
	printf "{\n"
	printf "  \"date\": \"%s\",\n", stamp
	printf "  \"go\": \"%s\",\n", gover
	printf "  \"service_solve\": {\n"
	printf "    \"ns_per_request\": %s,\n", jnum(ns["ServiceSolve"])
	printf "    \"bytes_per_request\": %s,\n", jnum(bytes["ServiceSolve"])
	printf "    \"allocs_per_request\": %s,\n", jnum(allocs["ServiceSolve"])
	printf "    \"allocs_ceiling\": 120\n"
	printf "  },\n"
	printf "  \"service_cache_hit\": {\n"
	printf "    \"ns_per_request\": %s,\n", jnum(ns["ServiceCacheHit"])
	printf "    \"bytes_per_request\": %s,\n", jnum(bytes["ServiceCacheHit"])
	printf "    \"allocs_per_request\": %s,\n", jnum(allocs["ServiceCacheHit"])
	printf "    \"allocs_ceiling\": 30\n"
	printf "  }\n"
	printf "}\n"
}' "$SRAW" >"$SOUT"

go run ./cmd/isebench -check "$SOUT" >/dev/null

echo "wrote $SOUT:"
cat "$SOUT"
