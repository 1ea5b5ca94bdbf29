package obs

// The metric name catalogue. Every series the pipeline emits is named
// here so docs/OBSERVABILITY.md, the declaration below, and the call
// sites cannot drift apart. Units follow Prometheus conventions:
// *_total counters are event counts, *_seconds are durations.
const (
	// internal/lp — simplex engines.
	MLPPivots = "lp_pivots_total" // simplex pivots across both phases, all engines

	// internal/tise — long-window LP relaxation.
	MTISEResolves = "tise_resolves_total" // long-window LP solves
	// MTISECutRounds names a series no solver emits: the long-window LP
	// has no cut loop. perfbench's per-layer report reads it, and a
	// missing series reads as 0 there.
	MTISECutRounds = "tise_cut_rounds_total"

	// internal/decomp + internal/core — time-component decomposition.
	MDecompComponents = "decomp_components"        // gauge: components in the last solve
	MDecompTasks      = "decomp_tasks_total"       // component solves dispatched to the pool
	MDecompPoolBusy   = "decomp_pool_busy"         // gauge: workers currently solving
	MDecompPoolMax    = "decomp_pool_busy_max"     // gauge: peak pool occupancy
	MDecompCompSecs   = "decomp_component_seconds" // histogram: per-component solve time
	MSolveSeconds     = "solve_seconds"            // histogram: end-to-end pipeline solves

	// internal/core — the robust ladder's exact branch-and-bound rung.
	MExactNodes = "exact_nodes_total" // search nodes expanded, proven, capped and stopped searches alike

	// internal/robust — cancellation, budgets, degradation ladder.
	MRobustFallback     = "robust_fallback_total"         // ladder falls; labeled rung="<rung>:<reason>"
	MRobustRungAnswers  = "robust_rung_answers_total"     // which rung produced the answer; labeled rung=...
	MRobustDeadlineHits = "robust_deadline_hits_total"    // solves that hit their deadline (counted once per solve)
	MRobustBudgetHits   = "robust_budget_exhausted_total" // solves that exhausted their work budget
	MRobustPanics       = "robust_panics_total"           // solver panics contained by RecoverTo

	// internal/cache — canonicalization-keyed schedule cache.
	MCacheHits      = "cache_hits_total"                // lookups answered from the LRU
	MCacheMisses    = "cache_misses_total"              // lookups that had to solve
	MCacheEvictions = "cache_evictions_total"           // entries dropped by LRU pressure
	MCacheEntries   = "cache_entries"                   // gauge: live entries across all shards
	MCacheShared    = "cache_singleflight_shared_total" // callers who joined another caller's in-flight solve

	// internal/cache — crash-safe snapshot persistence.
	MCacheSnapshots      = "cache_snapshot_total"        // snapshots written (periodic + shutdown)
	MCacheSnapshotDirty  = "cache_snapshot_entries"      // gauge: entries in the last snapshot written
	MCacheRestored       = "cache_restore_entries_total" // entries accepted from restored snapshots
	MCacheRestoreCorrupt = "cache_restore_corrupt_total" // snapshot entries discarded (CRC/decode/truncation)

	// internal/fault — deterministic fault injection (chaos suite).
	MFaultInjected = "fault_injected_total" // faults fired; labeled point=solve_panic|solve_latency|...

	// client — circuit breaker around the ised HTTP client.
	MBreakerState     = "breaker_state"           // gauge: 0 closed, 1 half-open, 2 open
	MBreakerOpens     = "breaker_opens_total"     // closed/half-open -> open transitions
	MBreakerFastFails = "breaker_fast_fail_total" // calls refused locally while open
	MBreakerProbes    = "breaker_probes_total"    // half-open trial requests allowed through

	// internal/server + internal/batch — the ised serving layer.
	MServiceRequests    = "service_requests_total"    // HTTP requests; labeled endpoint=solve|batch|healthz
	MServiceErrors      = "service_errors_total"      // non-2xx responses; labeled endpoint=...
	MServiceShed        = "service_shed_total"        // requests refused with 429 by admission control
	MServiceInflight    = "service_inflight"          // gauge: admitted requests currently being served
	MServiceInflightMax = "service_inflight_max"      // gauge: peak concurrent admitted requests
	MServiceQueueDepth  = "service_queue_depth"       // gauge: requests waiting for an admission slot
	MServiceSeconds     = "service_request_seconds"   // histogram: end-to-end solve/batch latency
	MBatchDedup         = "batch_dedup_replays_total" // batch rows replayed from a canonical twin's solve

	// internal/mm — machine-minimization LP box.
	MMMLPSolves  = "mm_lp_solves_total"       // LP relaxation solves (LPRound)
	MMMLPSkipped = "mm_lp_skipped_total"      // instances over the LP size cap that fell back to Greedy
	MMMTrials    = "mm_rounding_trials_total" // randomized rounding samples drawn

	// internal/server — request flight recorder and trace-log export.
	MFlightRecords     = "flight_records_total"    // decision records captured by the flight recorder
	MTraceLogRecords   = "trace_log_records_total" // records appended to the -trace-log JSONL sink
	MTraceLogRotations = "trace_log_rotate_total"  // size-triggered trace-log rotations
	MTraceLogErrors    = "trace_log_errors_total"  // trace-log write/rotate failures (records dropped)

	// internal/sim — deterministic workload simulator.
	MSimRequests       = "sim_requests_total"   // virtual requests issued; labeled class=...
	MSimShed           = "sim_shed_total"       // virtual requests shed by admission (immediately or from the queue)
	MSimQueued         = "sim_queued_total"     // virtual requests that waited in the virtual admission queue
	MSimCacheHits      = "sim_cache_hits_total" // virtual requests answered from the schedule cache
	MSimFollowers      = "sim_followers_total"  // virtual requests that joined an in-flight solve (singleflight)
	MSimSolves         = "sim_solves_total"     // virtual requests that ran a leader solve
	MSimEvents         = "sim_events_total"     // discrete events processed by the engine
	MSimVirtualSeconds = "sim_virtual_seconds"  // gauge: virtual clock position at end of run

	// internal/fleet + cmd/isedfleet — the consistent-hash fleet router.
	MFleetRequests       = "fleet_requests_total"       // router requests; labeled endpoint=solve|batch|healthz
	MFleetSpillover      = "fleet_spillover_total"      // forwards that left the affinity owner; labeled reason=unhealthy|shed|error
	MFleetExhausted      = "fleet_exhausted_total"      // requests that failed on every candidate node (answered 502/503)
	MFleetNodes          = "fleet_nodes"                // gauge: nodes in the current roster
	MFleetHealthyNodes   = "fleet_healthy_nodes"        // gauge: nodes currently routable (not ejected)
	MFleetEjects         = "fleet_eject_total"          // healthy -> ejected transitions of the health state machine
	MFleetReadmits       = "fleet_readmit_total"        // ejected -> healthy transitions after recovery probes
	MFleetProbeFails     = "fleet_probe_failures_total" // health probes that failed (transport or non-200)
	MFleetRebuilds       = "fleet_ring_rebuild_total"   // atomic ring rebuilds (roster changes)
	MFleetForwardSeconds = "fleet_forward_seconds"      // histogram: single forward attempt latency
	MFleetInflight       = "fleet_forward_inflight"     // gauge: forwards currently outstanding across all nodes

	// internal/fleet — asynchronous cache replication (write-behind to
	// ring successors), hinted handoff while a replica is ejected, and
	// the warm transfer that runs before a readmitted node re-enters
	// routing.
	MFleetReplEnqueued  = "fleet_replicate_enqueued_total"    // replica writes accepted into the replication queue
	MFleetReplSent      = "fleet_replicate_sent_total"        // replica writes delivered to their target node
	MFleetReplErrors    = "fleet_replicate_errors_total"      // replica writes that failed in delivery (transport or non-200)
	MFleetReplDropped   = "fleet_replicate_dropped_total"     // replica writes dropped by drop-oldest backpressure or shutdown
	MFleetReplCoalesced = "fleet_replicate_coalesced_total"   // pending replica writes replaced by a newer payload for the same key+target
	MFleetReplQueue     = "fleet_replicate_queue_depth"       // gauge: replica writes waiting in the queue
	MFleetReplicaPeeks  = "fleet_replica_peek_total"          // replica cache peeks issued when the owner could not serve
	MFleetReplicaHits   = "fleet_replica_hit_total"           // peeks answered from a replica's cache (no solve admitted)
	MFleetHintWritten   = "fleet_hint_written_total"          // replica writes diverted to hinted handoff (target down or delivery failed)
	MFleetHintDropped   = "fleet_hint_dropped_total"          // hints dropped by the per-node cap (drop-oldest)
	MFleetHintReplayed  = "fleet_hint_replayed_total"         // hints delivered to their node during warming
	MFleetHintEntries   = "fleet_hint_entries"                // gauge: hinted-handoff entries currently held
	MFleetWarmTransfers = "fleet_warm_transfer_total"         // warm transfers run for readmitting nodes
	MFleetWarmEntries   = "fleet_warm_transfer_entries_total" // entries shipped by warm transfers (hints + snapshot diff)
	MFleetWarmErrors    = "fleet_warm_transfer_errors_total"  // warm transfers that failed (node readmitted cold)
	MFleetWarmingNodes  = "fleet_warming_nodes"               // gauge: nodes currently in the warming state

	// internal/server — the /v1/cache/entries replication receiver.
	MCacheReplStored   = "cache_replica_stored_total"   // replicated entries accepted into the local cache
	MCacheReplSkipped  = "cache_replica_skipped_total"  // replicated entries skipped (key already cached locally)
	MCacheReplRejected = "cache_replica_rejected_total" // replicated entries rejected (key mismatch or failed validation)

	// internal/server — SLO layer. All labeled route=solve|batch.
	MSLOSeconds   = "slo_route_request_seconds" // histogram: per-route end-to-end latency
	MSLOObjective = "slo_objective_ratio"       // gauge: configured success objective (e.g. 0.99)
	MSLOThreshold = "slo_threshold_seconds"     // gauge: configured latency threshold
	MSLOBurnRate  = "slo_burn_rate"             // gauge: error-budget burn over the rolling window (1.0 = burning exactly the budget)
	MSLOBreaches  = "slo_breach_total"          // requests over threshold or failed (budget-burning events)
)

// Declare pre-registers the headline series at zero so metric dumps
// of an instrumented run always carry the full catalogue, whether or
// not a given path fired. Safe on nil registries.
func Declare(r *Registry) {
	if r == nil {
		return
	}
	for _, n := range []string{
		MLPPivots, MTISEResolves,
		MDecompTasks, MExactNodes,
		MRobustFallback, MRobustRungAnswers, MRobustDeadlineHits,
		MRobustBudgetHits, MRobustPanics,
		MMMLPSolves, MMMLPSkipped, MMMTrials,
	} {
		r.Counter(n)
	}
	r.Gauge(MDecompComponents)
	r.Gauge(MDecompPoolBusy)
	r.Gauge(MDecompPoolMax)
	r.Histogram(MDecompCompSecs, nil)
	r.Histogram(MSolveSeconds, nil)
}

// DeclareService pre-registers the serving-layer series (internal/
// cache, internal/server, internal/batch dedup) the same way Declare
// does for the solver pipeline. cmd/ised calls both, so a scrape of a
// fresh daemon already exports every series at zero.
func DeclareService(r *Registry) {
	if r == nil {
		return
	}
	for _, n := range []string{
		MCacheHits, MCacheMisses, MCacheEvictions, MCacheShared,
		MCacheSnapshots, MCacheRestored, MCacheRestoreCorrupt,
		MCacheReplStored, MCacheReplSkipped, MCacheReplRejected,
		MServiceShed, MBatchDedup,
		MFlightRecords, MTraceLogRecords, MTraceLogRotations, MTraceLogErrors,
	} {
		r.Counter(n)
	}
	for _, ep := range []string{"solve", "batch", "healthz", "entries"} {
		r.CounterWith(MServiceRequests, "endpoint", ep)
		r.CounterWith(MServiceErrors, "endpoint", ep)
	}
	for _, route := range []string{"solve", "batch"} {
		r.CounterWith(MSLOBreaches, "route", route)
		r.GaugeWith(MSLOObjective, "route", route)
		r.GaugeWith(MSLOThreshold, "route", route)
		r.GaugeWith(MSLOBurnRate, "route", route)
		r.HistogramWith(MSLOSeconds, "route", route, nil)
	}
	r.Gauge(MCacheEntries)
	r.Gauge(MCacheSnapshotDirty)
	r.Gauge(MServiceInflight)
	r.Gauge(MServiceInflightMax)
	r.Gauge(MServiceQueueDepth)
	r.Histogram(MServiceSeconds, nil)
}

// DeclareFleet pre-registers the fleet router's series so a scrape of
// a fresh isedfleet already exports the full fleet_* catalogue,
// including the spillover reasons that have not fired yet.
func DeclareFleet(r *Registry) {
	if r == nil {
		return
	}
	for _, n := range []string{
		MFleetExhausted, MFleetEjects, MFleetReadmits,
		MFleetProbeFails, MFleetRebuilds,
		MFleetReplEnqueued, MFleetReplSent, MFleetReplErrors,
		MFleetReplDropped, MFleetReplCoalesced,
		MFleetReplicaPeeks, MFleetReplicaHits,
		MFleetHintWritten, MFleetHintDropped, MFleetHintReplayed,
		MFleetWarmTransfers, MFleetWarmEntries, MFleetWarmErrors,
	} {
		r.Counter(n)
	}
	for _, ep := range []string{"solve", "batch", "healthz"} {
		r.CounterWith(MFleetRequests, "endpoint", ep)
	}
	for _, reason := range []string{"unhealthy", "shed", "error"} {
		r.CounterWith(MFleetSpillover, "reason", reason)
	}
	r.Gauge(MFleetNodes)
	r.Gauge(MFleetHealthyNodes)
	r.Gauge(MFleetInflight)
	r.Gauge(MFleetReplQueue)
	r.Gauge(MFleetHintEntries)
	r.Gauge(MFleetWarmingNodes)
	r.Histogram(MFleetForwardSeconds, nil)
}

// DeclareSim pre-registers the workload simulator's series so a
// simulated run's metric dump carries the full sim_* catalogue even
// when a path (shedding, queueing) never fired. cmd/isesim calls it
// next to Declare and DeclareService.
func DeclareSim(r *Registry) {
	if r == nil {
		return
	}
	for _, n := range []string{
		MSimRequests, MSimShed, MSimQueued, MSimCacheHits,
		MSimFollowers, MSimSolves, MSimEvents,
	} {
		r.Counter(n)
	}
	r.Gauge(MSimVirtualSeconds)
}

// helpText is the HELP catalogue for the Prometheus export: one line
// per metric name, emitted as a `# HELP` comment ahead of the `# TYPE`
// line. Names missing from the map export without a HELP line, so an
// uncatalogued ad-hoc metric still renders validly.
var helpText = map[string]string{
	MLPPivots: "Simplex pivots across both phases, all engines.",

	MTISEResolves: "Long-window LP solves.",

	MDecompComponents: "Time components in the last decomposed solve.",
	MDecompTasks:      "Component solves dispatched to the worker pool.",
	MDecompPoolBusy:   "Worker-pool goroutines currently solving.",
	MDecompPoolMax:    "Peak worker-pool occupancy.",
	MDecompCompSecs:   "Per-component solve time in seconds.",
	MSolveSeconds:     "End-to-end pipeline solve time in seconds.",

	MExactNodes: "Exact branch-and-bound search nodes expanded by the robust ladder.",

	MRobustFallback:     "Degradation-ladder falls, by rung and reason.",
	MRobustRungAnswers:  "Which ladder rung produced the answer.",
	MRobustDeadlineHits: "Solves that hit their deadline.",
	MRobustBudgetHits:   "Solves that exhausted their work budget.",
	MRobustPanics:       "Solver panics contained by the robust layer.",

	MCacheHits:      "Cache lookups answered from the LRU.",
	MCacheMisses:    "Cache lookups that had to solve.",
	MCacheEvictions: "Cache entries dropped by LRU pressure.",
	MCacheEntries:   "Live cache entries across all shards.",
	MCacheShared:    "Callers who joined another caller's in-flight solve.",

	MCacheSnapshots:      "Cache snapshots written (periodic plus shutdown).",
	MCacheSnapshotDirty:  "Entries in the last cache snapshot written.",
	MCacheRestored:       "Entries accepted from restored cache snapshots.",
	MCacheRestoreCorrupt: "Snapshot entries discarded by CRC or decode checks.",

	MFaultInjected: "Deterministic fault injections fired, by point.",

	MBreakerState:     "Client circuit breaker state: 0 closed, 1 half-open, 2 open.",
	MBreakerOpens:     "Circuit breaker transitions to open.",
	MBreakerFastFails: "Calls refused locally while the breaker was open.",
	MBreakerProbes:    "Half-open trial requests allowed through.",

	MServiceRequests:    "HTTP requests served, by endpoint.",
	MServiceErrors:      "Non-2xx HTTP responses, by endpoint.",
	MServiceShed:        "Requests refused with 429 by admission control.",
	MServiceInflight:    "Admitted requests currently being served.",
	MServiceInflightMax: "Peak concurrent admitted requests.",
	MServiceQueueDepth:  "Requests waiting for an admission slot.",
	MServiceSeconds:     "End-to-end request latency in seconds.",
	MBatchDedup:         "Batch rows replayed from a canonical twin's solve.",

	MMMLPSolves:  "Machine-minimization LP relaxation solves.",
	MMMLPSkipped: "Instances over the LP size cap that fell back to Greedy.",
	MMMTrials:    "Randomized rounding samples drawn.",

	MFlightRecords:     "Decision records captured by the request flight recorder.",
	MTraceLogRecords:   "Records appended to the trace-log JSONL sink.",
	MTraceLogRotations: "Size-triggered trace-log rotations.",
	MTraceLogErrors:    "Trace-log write or rotate failures (records dropped).",

	MSimRequests:       "Virtual requests issued by the workload simulator, by class.",
	MSimShed:           "Virtual requests shed by admission control.",
	MSimQueued:         "Virtual requests that waited in the virtual admission queue.",
	MSimCacheHits:      "Virtual requests answered from the schedule cache.",
	MSimFollowers:      "Virtual requests that joined an in-flight solve.",
	MSimSolves:         "Virtual requests that ran a leader solve.",
	MSimEvents:         "Discrete events processed by the simulation engine.",
	MSimVirtualSeconds: "Virtual clock position at the end of the simulated run.",

	MFleetRequests:       "Fleet router requests, by endpoint.",
	MFleetSpillover:      "Forwards that left the affinity owner, by reason.",
	MFleetExhausted:      "Requests that failed on every candidate node.",
	MFleetNodes:          "Nodes in the current fleet roster.",
	MFleetHealthyNodes:   "Nodes currently routable (not ejected).",
	MFleetEjects:         "Node ejections by the health state machine.",
	MFleetReadmits:       "Node readmissions after recovery probes.",
	MFleetProbeFails:     "Health probes that failed.",
	MFleetRebuilds:       "Atomic consistent-hash ring rebuilds.",
	MFleetForwardSeconds: "Single forward attempt latency in seconds.",
	MFleetInflight:       "Forwards currently outstanding across all nodes.",

	MFleetReplEnqueued:  "Replica writes accepted into the replication queue.",
	MFleetReplSent:      "Replica writes delivered to their target node.",
	MFleetReplErrors:    "Replica writes that failed in delivery.",
	MFleetReplDropped:   "Replica writes dropped by backpressure or shutdown.",
	MFleetReplCoalesced: "Pending replica writes replaced by a newer same-key payload.",
	MFleetReplQueue:     "Replica writes waiting in the replication queue.",
	MFleetReplicaPeeks:  "Replica cache peeks issued when the owner could not serve.",
	MFleetReplicaHits:   "Peeks answered from a replica's cache without a solve.",
	MFleetHintWritten:   "Replica writes diverted to hinted handoff.",
	MFleetHintDropped:   "Hinted-handoff entries dropped by the per-node cap.",
	MFleetHintReplayed:  "Hinted-handoff entries delivered during warming.",
	MFleetHintEntries:   "Hinted-handoff entries currently held.",
	MFleetWarmTransfers: "Warm transfers run for readmitting nodes.",
	MFleetWarmEntries:   "Entries shipped by warm transfers (hints plus snapshot diff).",
	MFleetWarmErrors:    "Warm transfers that failed (node readmitted cold).",
	MFleetWarmingNodes:  "Nodes currently in the warming state.",

	MCacheReplStored:   "Replicated cache entries accepted into the local cache.",
	MCacheReplSkipped:  "Replicated cache entries skipped: key already cached.",
	MCacheReplRejected: "Replicated cache entries rejected by key or validation checks.",

	MSLOSeconds:   "Per-route end-to-end request latency in seconds.",
	MSLOObjective: "Configured SLO success objective, by route.",
	MSLOThreshold: "Configured SLO latency threshold in seconds, by route.",
	MSLOBurnRate:  "Error-budget burn rate over the rolling window, by route.",
	MSLOBreaches:  "Requests that burned error budget (over threshold or failed), by route.",
}

// Help returns the catalogue HELP text for a metric name ("" when the
// name is not catalogued).
func Help(name string) string { return helpText[name] }
