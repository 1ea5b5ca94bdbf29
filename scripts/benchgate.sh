#!/bin/sh
# Benchmark regression gate for pull requests, in two parts.
#
# Part 1 (relative): runs the headline solver benchmarks
# (BenchmarkT1LongWindowN40, BenchmarkT8Scaling,
# BenchmarkServedLadder, calib.SolveRobust over a fixed corpus of
# every workload family as ised serves it, and BenchmarkExactTail, the
# exact rung's search on components that once took 100 000+ nodes,
# which the served corpus never reaches, and
# BenchmarkHeuristicPostPass, heur.Lazy then improve.Run then
# ise.Compact on every time component of the 432-instance family
# corpus) on the working tree and on
# a base ref checked out into a throwaway git worktree, then fails if
# any sub-benchmark's mean ns/op — or, where both sides report them,
# mean allocs/op, pivots/op or nodes/op — regressed by more than
# BENCHGATE_PCT percent (default 10). Pivots and search nodes are
# deterministic work units: they move only when the solver's decisions
# do, so they judge a solver change even when short timings swing with
# the host. A benchmark the base lacks is reported and skipped.
#
# Part 2 (absolute): runs the service hot-path benchmarks
# (BenchmarkServiceSolve, BenchmarkServiceCacheHit) on the working
# tree only and fails if allocs/op exceeds a fixed ceiling, and fails
# if part 1's head runs of BenchmarkServedLadder allocate more B/op
# than a fixed ceiling. The allocation-free hot path and the LP's
# memory are pinned in absolute terms because a relative gate would
# let the ceiling ratchet upward through a series of sub-threshold
# regressions. The LP tableaus are recycled through internal/lp's
# free list of arenas, which the benchmark's first run fills, so the
# ladder reads about 7.5 MB/op with reuse and about 50 MB/op when
# every LP allocates its own tableau again: the 24 MB ceiling fails
# a change that loses the reuse, and leaves room for the free list's
# idle release to fire once on a slow runner. The tableau's own size,
# (m+1)×(n−m+1) cells, is pinned by internal/lp's
# TestTableauStoresNonbasicColumnsOnly, not by this gate.
#
# benchstat, when installed, prints its statistical report for the
# humans reading the log; the pass/fail decision itself is a pure-awk
# mean comparison so the gate needs nothing beyond the Go toolchain.
#
# Usage: ./scripts/benchgate.sh [base-ref]   (default origin/main)
# Env:   BENCHGATE_BENCHTIME (default 3x), BENCHGATE_COUNT (default 3),
#        BENCHGATE_PCT (default 10),
#        BENCHGATE_SERVICE_BENCHTIME (default 2000x),
#        BENCHGATE_SOLVE_ALLOCS (default 120),
#        BENCHGATE_CACHE_HIT_ALLOCS (default 30)
set -eu
cd "$(dirname "$0")/.."

BASE_REF="${1:-origin/main}"
BENCH='BenchmarkT1LongWindowN40|BenchmarkT8Scaling|BenchmarkServedLadder|BenchmarkExactTail|BenchmarkHeuristicPostPass'
BENCHTIME="${BENCHGATE_BENCHTIME:-3x}"
COUNT="${BENCHGATE_COUNT:-3}"
PCT="${BENCHGATE_PCT:-10}"

if ! git rev-parse --verify --quiet "$BASE_REF^{commit}" >/dev/null; then
	echo "benchgate: base ref $BASE_REF does not resolve to a commit" >&2
	exit 1
fi

HEAD_OUT="$(mktemp)"
BASE_OUT="$(mktemp)"
SVC_OUT="$(mktemp)"
WT_PARENT="$(mktemp -d)"
WT="$WT_PARENT/base"
cleanup() {
	rm -f "$HEAD_OUT" "$BASE_OUT" "$SVC_OUT"
	git worktree remove --force "$WT" 2>/dev/null || true
	rm -rf "$WT_PARENT"
}
trap cleanup EXIT

# No pipe into tee: a pipeline would mask go test's exit status under
# plain sh (same rationale as bench.sh).
echo "benchgate: benchmarking head ($(git rev-parse --short HEAD))"
go test -run XXX -bench "$BENCH" -benchtime "$BENCHTIME" -count "$COUNT" \
	. >"$HEAD_OUT" 2>&1 || {
	cat "$HEAD_OUT"
	echo "benchgate: head benchmark run failed" >&2
	exit 1
}
cat "$HEAD_OUT"

echo "benchgate: benchmarking base ($(git rev-parse --short "$BASE_REF"))"
git worktree add --quiet --detach "$WT" "$BASE_REF"
(cd "$WT" && go test -run XXX -bench "$BENCH" -benchtime "$BENCHTIME" \
	-count "$COUNT" .) >"$BASE_OUT" 2>&1 || {
	cat "$BASE_OUT"
	echo "benchgate: base benchmark run failed" >&2
	exit 1
}
cat "$BASE_OUT"

REL_FAIL=0
SVC_FAIL=0
MEM_FAIL=0

if command -v benchstat >/dev/null 2>&1; then
	echo "benchgate: benchstat report (informational)"
	benchstat "$BASE_OUT" "$HEAD_OUT" || true
fi

# Mean ns/op, allocs/op, pivots/op and nodes/op per sub-benchmark
# (CPU-count suffix stripped), base vs head; sub-benchmarks or units
# that exist on only one side are reported but never gate — a PR
# adding or renaming a benchmark (or turning on ReportAllocs) must not
# fail here.
awk -v pct="$PCT" '
BEGIN { nunits = split("allocs/op pivots/op nodes/op", unit, " ") }
FNR == NR && /^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") { bsum[name] += $(i - 1); bn[name]++ }
		for (u = 1; u <= nunits; u++)
			if ($i == unit[u]) { busum[name, u] += $(i - 1); bun[name, u]++ }
	}
	next
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") { hsum[name] += $(i - 1); hn[name]++ }
		for (u = 1; u <= nunits; u++)
			if ($i == unit[u]) { husum[name, u] += $(i - 1); hun[name, u]++ }
	}
}
END {
	fail = 0
	checked = 0
	for (name in hn) {
		if (!(name in bn)) {
			printf "benchgate: %s: not in base, skipped\n", name
			continue
		}
		base = bsum[name] / bn[name]
		head = hsum[name] / hn[name]
		delta = (head - base) / base * 100
		checked++
		status = "ok"
		if (delta > pct) { status = "REGRESSION"; fail = 1 }
		printf "benchgate: %-55s base %12.0f %-10s head %12.0f %-10s %+8.2f%%  %s\n", \
			name, base, "ns/op", head, "ns/op", delta, status
		for (u = 1; u <= nunits; u++) {
			if (!((name, u) in bun) || !((name, u) in hun) || busum[name, u] <= 0) continue
			ubase = busum[name, u] / bun[name, u]
			uhead = husum[name, u] / hun[name, u]
			udelta = (uhead - ubase) / ubase * 100
			status = "ok"
			if (udelta > pct) { status = "REGRESSION"; fail = 1 }
			printf "benchgate: %-55s base %12.0f %-10s head %12.0f %-10s %+8.2f%%  %s\n", \
				name, ubase, unit[u], uhead, unit[u], udelta, status
		}
	}
	for (name in bn) {
		if (!(name in hn)) printf "benchgate: %s: missing from head, skipped\n", name
	}
	if (checked == 0) {
		print "benchgate: no comparable benchmarks between base and head" > "/dev/stderr"
		exit 1
	}
	if (fail) {
		printf "benchgate: FAIL — regression above %s%% threshold\n", pct > "/dev/stderr"
		exit 1
	}
	printf "benchgate: pass (%d sub-benchmarks within %s%%)\n", checked, pct
}' "$BASE_OUT" "$HEAD_OUT" || REL_FAIL=1

# --- absolute allocation ceilings on the service hot path -----------
# BenchmarkServiceCacheHit is the allocation-free hot path's floor
# (request decode + canonicalize + LRU hit + response encode);
# BenchmarkServiceSolve mixes fresh solves into the rotation. Both are
# head-only: the ceiling is the contract, not the previous commit.
SERVICE_BENCH='BenchmarkServiceSolve|BenchmarkServiceCacheHit'
SERVICE_BENCHTIME="${BENCHGATE_SERVICE_BENCHTIME:-2000x}"
SOLVE_ALLOCS_MAX="${BENCHGATE_SOLVE_ALLOCS:-120}"
HIT_ALLOCS_MAX="${BENCHGATE_CACHE_HIT_ALLOCS:-30}"

echo "benchgate: service allocation ceilings (solve <= $SOLVE_ALLOCS_MAX, cache hit <= $HIT_ALLOCS_MAX allocs/op)"
go test -run XXX -bench "$SERVICE_BENCH" -benchtime "$SERVICE_BENCHTIME" \
	-count "$COUNT" ./internal/server >"$SVC_OUT" 2>&1 || {
	cat "$SVC_OUT"
	echo "benchgate: service benchmark run failed" >&2
	exit 1
}
cat "$SVC_OUT"

awk -v solve_max="$SOLVE_ALLOCS_MAX" -v hit_max="$HIT_ALLOCS_MAX" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "allocs/op") { sum[name] += $(i - 1); n[name]++ }
	}
}
END {
	fail = 0
	fail += gate("BenchmarkServiceSolve", solve_max)
	fail += gate("BenchmarkServiceCacheHit", hit_max)
	if (fail) {
		print "benchgate: FAIL — service allocation ceiling exceeded" > "/dev/stderr"
		exit 1
	}
	print "benchgate: service allocation ceilings pass"
}
function gate(name, max,    mean, status) {
	if (!(name in n)) {
		printf "benchgate: %s: no allocs/op reported\n", name > "/dev/stderr"
		return 1
	}
	mean = sum[name] / n[name]
	status = "ok"
	if (mean > max) status = "OVER CEILING"
	printf "benchgate: %-55s %8.0f allocs/op  (ceiling %s)  %s\n", name, mean, max, status
	return status == "ok" ? 0 : 1
}' "$SVC_OUT" || SVC_FAIL=1

# --- absolute memory ceiling on the served ladder -------------------
# Read from part 1's head runs: BenchmarkServedLadder reports B/op
# (the benchmark turns ReportAllocs on). Head-only, like the service
# ceilings. scripts/bench.sh records the same ceiling in BENCH_lp.json.
LADDER_BYTES_MAX=24000000
echo "benchgate: served-ladder memory ceiling (<= $LADDER_BYTES_MAX B/op)"
awk -v max="$LADDER_BYTES_MAX" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (name != "BenchmarkServedLadder") next
	for (i = 2; i <= NF; i++) {
		if ($i == "B/op") { sum += $(i - 1); n++ }
	}
}
END {
	if (n == 0) {
		print "benchgate: BenchmarkServedLadder: no B/op reported" > "/dev/stderr"
		exit 1
	}
	mean = sum / n
	status = "ok"
	if (mean > max) status = "OVER CEILING"
	printf "benchgate: %-55s %12.0f B/op  (ceiling %s)  %s\n", "BenchmarkServedLadder", mean, max, status
	if (status != "ok") {
		print "benchgate: FAIL — served-ladder memory ceiling exceeded" > "/dev/stderr"
		exit 1
	}
}' "$HEAD_OUT" || MEM_FAIL=1

# Every gate always runs, so one failing cannot hide another's report.
if [ "$REL_FAIL" -ne 0 ] || [ "$SVC_FAIL" -ne 0 ] || [ "$MEM_FAIL" -ne 0 ]; then
	exit 1
fi
