package main

import (
	"fmt"
	"time"

	"calib/internal/obs"
)

// runTraced measures the workload's requests twice on fresh stacks, once
// untraced and once with every handler and transport wrapped in timing
// spans, replays every solve through the solver's public functions, and
// reports the per-layer metrics. It fails unless both passes and the
// replay agree exactly on the quality sums, the served calibration
// counts and the solver counters.
func runTraced(w *workload, seed int64, n int, spansPath string, rep *report) error {
	s0, err := setUp(w, seed, n, nil)
	if err != nil {
		return err
	}
	p0, err := measure(w, s0, nil)
	s0.st.close()
	if err != nil {
		return err
	}
	rep.phase(p0)

	tr := newTracer()
	s1, err := setUp(w, seed, n, tr)
	if err != nil {
		return err
	}
	p1, err := measure(w, s1, tr)
	s1.st.close()
	if err != nil {
		return err
	}
	rep.phase(p1)
	if p0.quality != p1.quality {
		rep.fail("quality sums differ between passes of one seed: %+v vs %+v", p0.quality, p1.quality)
	}

	// Replay every instance the stacks solved: the setup list and the
	// measured requests that were not twins. Per-layer solver metrics
	// cover the measured ones; the fidelity check covers all.
	regSetup, regMeasured := obs.NewRegistry(), obs.NewRegistry()
	rungs := map[string]int{}
	replayed := 0
	var measured []*solveStat
	replayAll := func(reqs []request, reg *obs.Registry, keep bool) error {
		for i := range reqs {
			if reqs[i].twin {
				continue
			}
			st, err := replay(reqs[i].inst, reg)
			if err != nil {
				return err
			}
			for _, s := range []*setupRun{s0, s1} {
				if got := s.chk.served[reqs[i].key]; got != st.calibrations {
					rep.fail("replay of key %016x gives %d calibrations, served %d", reqs[i].key, st.calibrations, got)
				}
			}
			replayed++
			for k, v := range st.rungs {
				rungs[k] += v
			}
			if keep {
				measured = append(measured, st)
			}
		}
		return nil
	}
	if err := replayAll(s1.in.setup, regSetup, false); err != nil {
		return err
	}
	err = s1.in.segments(w.segment, func(_ int, reqs []request) error {
		return replayAll(reqs, regMeasured, true)
	})
	if err != nil {
		return err
	}
	rt := tallyOf(regSetup, regMeasured)
	for _, k := range []string{"exact", "lp", "heur"} {
		rt[obs.MRobustRungAnswers+"{"+k+"}"] = float64(rungs[k])
	}
	for _, name := range []string{
		obs.MLPPivots, obs.MTISEResolves, obs.MRobustRungAnswers + "{exact}",
		obs.MRobustRungAnswers + "{lp}", obs.MRobustRungAnswers + "{heur}",
	} {
		if rt[name] != p0.after[name] || rt[name] != p1.after[name] {
			rep.fail("replay fidelity: %s replayed %v, untraced run %v, traced run %v", name, rt[name], p0.after[name], p1.after[name])
		}
	}
	serving, err := timeServing(p1.samples)
	if err != nil {
		return err
	}
	rep.line("replayed %d solves (%d measured): lp_pivots_total %v, tise_resolves_total %v",
		replayed, len(measured), rt[obs.MLPPivots], rt[obs.MTISEResolves])
	layerMetrics(rep, w, p0, p1, tr, measured, tallyOf(regMeasured), serving)
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		rep.line("spans: %s (%d)", spansPath, len(tr.spans))
	}
	return nil
}

// reqSpans gathers one request's measured spans by X-Request-Id.
type reqSpans struct {
	client, router, server, forwards time.Duration
	hasClient, hasRouter             bool
}

// layerMetrics derives the per-layer metrics: self times from the
// traced pass's spans, counts from the program's own counters over the
// traced measured phase, solver work from the replay of the measured
// solves, serving-function times from the re-timed samples, and the
// runtime's allocation and GC counts from the untraced pass.
func layerMetrics(rep *report, w *workload, p0, p1 *phase, tr *tracer, solves []*solveStat, replayed tally, sv *servingTimes) {
	byID := map[string]*reqSpans{}
	get := func(id string) *reqSpans {
		r := byID[id]
		if r == nil {
			r = &reqSpans{}
			byID[id] = r
		}
		return r
	}
	var forwards, replicates, handlers int
	var fwdSum, replSum, handlerSum time.Duration
	for _, s := range tr.measured() {
		switch s.Layer {
		case layerClient:
			r := get(s.ID)
			r.client, r.hasClient = s.dur(), true
		case layerFleet:
			if s.Path == "/v1/solve" {
				r := get(s.ID)
				r.router, r.hasRouter = s.dur(), true
			}
		case layerForward:
			forwards++
			fwdSum += s.dur()
			get(s.ID).forwards += s.dur()
		case layerReplicate:
			replicates++
			replSum += s.dur()
		case layerServer:
			if s.Path == "/v1/solve" {
				handlers++
				handlerSum += s.dur()
				get(s.ID).server = s.dur()
			}
		}
	}
	var clientSelf, routerSelf time.Duration
	var clients, routers int
	for _, r := range byID {
		if r.hasClient {
			first := r.server
			if w.routed {
				first = r.router
			}
			clientSelf += r.client - first
			clients++
		}
		if r.hasRouter {
			routerSelf += r.router - r.forwards
			routers++
		}
	}
	d, fd := p1.after.minus(p1.before), p1.fafter.minus(p1.fbefore)
	meanMS := func(sum time.Duration, n int) float64 { return ratio(ms(sum), float64(n)) }
	meanUS := func(sum time.Duration, n int) float64 { return ratio(float64(sum)/1e3, float64(n)) }

	rep.metric("client.self_ms_mean", meanMS(clientSelf, clients), "ms", clients)
	rep.metric("client.attempts_per_req", ratio(float64(p1.attempts), float64(p1.attempted)), "attempts/req", p1.attempted)

	rep.metric("fleet.self_ms_mean", meanMS(routerSelf, routers), "ms", routers)
	rep.metric("fleet.forward_ms_mean", meanMS(fwdSum, forwards), "ms", forwards)
	rep.metric("fleet.forwards_per_req", ratio(float64(forwards), float64(routers)), "fwd/req", routers)
	owner := 0.0
	if w.routed {
		owner = ratio(float64(p1.affinity), float64(p1.attempted))
	}
	rep.metric("fleet.owner_ratio", owner, "ratio", p1.attempted)
	rep.metric("fleet.replicate_posts", float64(replicates), "count", replicates)
	rep.metric("fleet.replicate_ms_sum", ms(replSum), "ms", replicates)
	rep.metric("fleet.replicate_sent_ratio", ratio(fd[obs.MFleetReplSent], fd[obs.MFleetReplEnqueued]), "ratio", int(fd[obs.MFleetReplEnqueued]))

	solveSum, solveCount := d[obs.MSolveSeconds+"_sum"]*1e3, d[obs.MSolveSeconds+"_count"]
	rep.metric("server.handler_ms_mean", meanMS(handlerSum, handlers), "ms", handlers)
	rep.metric("server.self_ms_mean", meanMS(handlerSum, handlers)-ratio(solveSum, float64(handlers)), "ms", handlers)
	rep.metric("server.solve_ms_mean", ratio(solveSum, solveCount), "ms", int(solveCount))

	solveReqs := d[obs.MServiceRequests+"{solve}"]
	rep.metric("cache.hit_ratio", ratio(d[obs.MCacheHits], solveReqs), "ratio", int(solveReqs))
	rep.metric("cache.solves", solveCount, "count", int(solveCount))
	rep.metric("cache.replica_stored", d[obs.MCacheReplStored], "count", int(d[obs.MCacheReplStored]))
	rep.metric("cache.replica_skipped", d[obs.MCacheReplSkipped], "count", int(d[obs.MCacheReplSkipped]))

	rep.metric("api.decode_us_mean", meanUS(sv.decode, sv.n), "us", sv.n)
	rep.metric("api.encode_us_mean", meanUS(sv.encode, sv.n), "us", sv.n)
	rep.metric("canon.canonicalize_us_mean", meanUS(sv.canonicalize, sv.n), "us", sv.n)
	rep.metric("canon.decanonicalize_us_mean", meanUS(sv.decanonicalize, sv.n), "us", sv.n)
	rep.metric("ise.validate_us_mean", meanUS(sv.validate, sv.n), "us", sv.n)
	rep.metric("bounds.lower_us_mean", meanUS(sv.lower, sv.n), "us", sv.n)

	var totals []time.Duration
	var core, split, exactT, tiseT, shortT time.Duration
	var comps, exactCalls, proven, nodes, tiseCalls, heurCalls, fallbacks int
	rungs := map[string]int{}
	for _, s := range solves {
		totals = append(totals, s.total)
		core += s.total
		split += s.split
		exactT += s.exact
		tiseT += s.tise
		shortT += s.short
		comps += s.components
		exactCalls += s.exactCalls
		proven += s.exactProven
		nodes += s.exactNodes
		tiseCalls += s.tiseCalls
		heurCalls += s.heurCalls
		fallbacks += s.fallbacks
		for k, v := range s.rungs {
			rungs[k] += v
		}
	}
	answers := float64(rungs["exact"] + rungs["lp"] + rungs["heur"])
	rep.metric("core.solve_ms_p50", ms(quantile(totals, 0.50)), "ms", len(solves))
	rep.metric("core.solve_ms_p99", ms(quantile(totals, 0.99)), "ms", len(solves))
	rep.metric("core.solve_ms_sum", ms(core), "ms", len(solves))
	rep.metric("core.rung_exact_ratio", ratio(float64(rungs["exact"]), answers), "ratio", int(answers))
	rep.metric("core.rung_lp_ratio", ratio(float64(rungs["lp"]), answers), "ratio", int(answers))
	rep.metric("core.rung_heur_ratio", ratio(float64(rungs["heur"]), answers), "ratio", int(answers))
	rep.metric("core.fallbacks", float64(fallbacks), "count", len(solves))
	rep.metric("decomp.split_us_mean", meanUS(split, len(solves)), "us", len(solves))
	rep.metric("decomp.components_per_solve", ratio(float64(comps), float64(len(solves))), "comp/solve", len(solves))
	rep.metric("exact.ms_sum", ms(exactT), "ms", exactCalls)
	rep.metric("exact.nodes_per_call", ratio(float64(nodes), float64(exactCalls)), "nodes/call", exactCalls)
	rep.metric("exact.proven_ratio", ratio(float64(proven), float64(exactCalls)), "ratio", exactCalls)
	rep.metric("tise.ms_sum", ms(tiseT), "ms", tiseCalls)
	rep.metric("tise.resolves", replayed[obs.MTISEResolves], "count", tiseCalls)
	rep.metric("tise.cut_rounds", replayed[obs.MTISECutRounds], "count", tiseCalls)
	rep.metric("lp.pivots_per_solve", ratio(replayed[obs.MLPPivots], float64(tiseCalls)), "pivots/solve", tiseCalls)
	rep.metric("shortwin.ms_sum", ms(shortT), "ms", len(solves))
	rep.metric("heur.calls", float64(heurCalls), "count", heurCalls)

	rep.metric("runtime.alloc_kb_per_req", ratio(float64(p0.allocBytes)/1024, float64(p0.attempted)), "KiB/req", p0.attempted)
	rep.metric("runtime.gc_per_1k_req", ratio(float64(p0.gcs)*1000, float64(p0.attempted)), "gc/1k-req", p0.attempted)
	rep.metric("trace.overhead_ratio", ratio(p1.meanLatMS, p0.meanLatMS), "ratio", p1.attempted)
}
