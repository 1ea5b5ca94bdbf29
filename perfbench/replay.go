package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"calib"
	"calib/api"
	"calib/internal/canon"
	"calib/internal/decomp"
	"calib/internal/exact"
	"calib/internal/heur"
	"calib/internal/ise"
	"calib/internal/mm"
	"calib/internal/obs"
	"calib/internal/shortwin"
	"calib/internal/tise"
)

// The production ladder's exact-rung gate (core.SolveRobust defaults):
// components of at most exactJobs jobs try branch and bound capped at
// exactNodes nodes; an unproven search falls to the LP rung.
const (
	exactJobs  = 12
	exactNodes = 500_000
)

// solveStat is the replay of one canonical instance through the
// ladder's public solver functions.
type solveStat struct {
	calibrations int
	components   int
	split        time.Duration
	exact        time.Duration
	tise         time.Duration
	short        time.Duration
	total        time.Duration
	exactCalls   int
	exactProven  int
	exactNodes   int
	tiseCalls    int
	heurCalls    int
	fallbacks    int
	rungs        map[string]int
}

// replay solves inst's canonical form the way the service's default
// ladder does: decomp.Split, then per component exact.Solve under the
// gate, else PartitionAt(2T) → tise.Solve + shortwin.Solve with the
// default dense engine, direct rows and greedy MM box, else the lazy
// heuristic. Solver counters land in reg.
func replay(inst *ise.Instance, reg *obs.Registry) (*solveStat, error) {
	c := canon.Canonicalize(inst).Instance
	st := &solveStat{rungs: map[string]int{}}
	t0 := time.Now()
	comps := decomp.Split(c)
	st.split = time.Since(t0)
	st.components = len(comps)
	for _, comp := range comps {
		ci := comp.Inst
		if ci.N() <= exactJobs {
			t := time.Now()
			res, err := exact.Solve(ci, exact.Options{MaxNodes: exactNodes, WarmStart: true})
			st.exact += time.Since(t)
			st.exactCalls++
			if res != nil {
				st.exactNodes += res.Nodes
			}
			if err == nil && res.Proven {
				st.exactProven++
				st.calibrations += res.Schedule.NumCalibrations()
				st.rungs["exact"]++
				continue
			}
			st.fallbacks++
		}
		cals, err := st.lpRung(ci, reg)
		if err == nil {
			st.calibrations += cals
			st.rungs["lp"]++
			continue
		}
		st.fallbacks++
		st.heurCalls++
		sched, err := heur.Lazy(ci, heur.Options{})
		if err != nil {
			return nil, fmt.Errorf("heuristic rung: %w", err)
		}
		st.calibrations += sched.NumCalibrations()
		st.rungs["heur"]++
	}
	st.total = time.Since(t0)
	return st, nil
}

// lpRung is the paper's pipeline on one component: long windows
// through the LP, short windows through the MM black box.
func (st *solveStat) lpRung(ci *ise.Instance, reg *obs.Registry) (int, error) {
	long, short, _, _ := ci.PartitionAt(ise.Time(shortwin.Gamma) * ci.T)
	cals := 0
	if long.N() > 0 {
		t := time.Now()
		lr, err := tise.Solve(long, tise.Options{Engine: tise.Float64, Strategy: tise.Direct, Metrics: reg})
		st.tise += time.Since(t)
		st.tiseCalls++
		if err != nil {
			return 0, err
		}
		cals += lr.Schedule.NumCalibrations()
	}
	if short.N() > 0 {
		t := time.Now()
		sr, err := shortwin.Solve(short, shortwin.Options{MM: mm.Greedy{}, Gamma: shortwin.Gamma, Metrics: reg})
		st.short += time.Since(t)
		if err != nil {
			return 0, err
		}
		cals += sr.Schedule.NumCalibrations()
	}
	return cals, nil
}

// servingTimes are mean per-call times of the serving layer's pure
// functions, re-run on the workload's own requests and answers.
type servingTimes struct {
	decode, encode, canonicalize, decanonicalize, validate, lower time.Duration
	n                                                             int
}

// timeServing re-times, per sampled request, what the ised handler does
// around the cache: decode the request body into the api types,
// canonicalize, de-canonicalize the cached schedule, validate it against
// the request, encode the response (the handler's indented encoder),
// plus the lower bound each answer carries.
func timeServing(samples []sample) (*servingTimes, error) {
	out := &servingTimes{n: len(samples)}
	var cs canon.Scratch
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	for _, s := range samples {
		body, err := json.Marshal(&api.SolveRequest{Instance: s.inst})
		if err != nil {
			return nil, err
		}
		t := time.Now()
		var req api.SolveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		out.decode += time.Since(t)

		t = time.Now()
		c := cs.Canonicalize(req.Instance)
		out.canonicalize += time.Since(t)

		cached, err := c.Recanonicalize(s.resp.Schedule)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		sched := c.Decanonicalize(cached)
		out.decanonicalize += time.Since(t)

		t = time.Now()
		err = ise.Validate(req.Instance, sched)
		out.validate += time.Since(t)
		if err != nil {
			return nil, err
		}

		t = time.Now()
		calib.LowerBound(req.Instance)
		out.lower += time.Since(t)

		buf.Reset()
		t = time.Now()
		err = enc.Encode(s.resp)
		out.encode += time.Since(t)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
