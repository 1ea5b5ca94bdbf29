package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"calib"
	"calib/api"
	"calib/internal/obs"
)

// result is what one Solve call returned.
type result struct {
	resp *api.SolveResponse
	err  error
	call call
	// sent is when the request was sent, done when its response was
	// decoded.
	sent, done time.Time
}

func (r *result) latency() time.Duration { return r.done.Sub(r.sent) }

// send issues one request through the client.
func send(st *stack, tr *tracer, req *request) result {
	res := result{sent: time.Now()}
	ctx := withCall(context.Background(), &res.call)
	res.resp, res.err = st.client.Solve(ctx, &api.SolveRequest{Instance: req.inst})
	res.done = time.Now()
	tr.add(span{Layer: layerClient, ID: res.call.id, Path: "/v1/solve"}, res.sent, res.done)
	return res
}

// drive sends reqs as a closed loop from conns workers, each taking the
// next request once its previous one is answered, and returns the wall
// time from the start to the last answer.
func drive(st *stack, tr *tracer, reqs []request, out []result) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = send(st, tr, &reqs[i])
			}
		}()
	}
	wg.Wait()
	last := start
	for i := range out {
		if out[i].done.After(last) {
			last = out[i].done
		}
	}
	return last.Sub(start)
}

// checker holds the output checks of one stack's lifetime: keys already
// served by a solve, and the calibration count served for each key.
type checker struct {
	st     *stack
	solved map[uint64]bool
	served map[uint64]int
}

func newChecker(st *stack) *checker {
	return &checker{st: st, solved: map[uint64]bool{}, served: map[uint64]int{}}
}

// verify checks one answer against the request the benchmark sent and
// returns "" or the first failed check. Every schedule must be feasible
// for the sent instance; the objective, machine count and lower bound
// must be what the schedule and the instance say; a twin must be served
// from the cache and anything else by a solve; a routed request must be
// answered by its ring owner. It reads nothing shared, so a segment's
// answers are verified in parallel.
func (c *checker) verify(req *request, res *result) string {
	if res.err != nil {
		return res.err.Error()
	}
	r := res.resp
	switch {
	case r.Schedule == nil:
		return "no schedule"
	case r.Key != fmt.Sprintf("%016x", req.key):
		return fmt.Sprintf("key %s, want %016x", r.Key, req.key)
	}
	if err := calib.Validate(req.inst, r.Schedule); err != nil {
		return "infeasible schedule: " + err.Error()
	}
	switch {
	case r.Calibrations != r.Schedule.NumCalibrations():
		return fmt.Sprintf("calibrations %d, schedule has %d", r.Calibrations, r.Schedule.NumCalibrations())
	case r.MachinesUsed != r.Schedule.MachinesUsed():
		return fmt.Sprintf("machines_used %d, schedule uses %d", r.MachinesUsed, r.Schedule.MachinesUsed())
	case r.LowerBound != calib.LowerBound(req.inst):
		return fmt.Sprintf("lower_bound %d, want %d", r.LowerBound, calib.LowerBound(req.inst))
	case r.Cached != req.twin:
		return fmt.Sprintf("cached=%v on a request with twin=%v", r.Cached, req.twin)
	}
	if c.st.fleet != nil {
		if owner := c.st.fleet.Owner(req.key); res.call.route != "affinity" || res.call.node != owner {
			return fmt.Sprintf("routed %q to %s, owner %s", res.call.route, res.call.node, owner)
		}
	}
	return ""
}

// record checks a verified answer against the stack's history: a key
// is solved at most once and always served with one calibration count.
func (c *checker) record(req *request, res *result) string {
	r := res.resp
	if !req.twin && c.solved[req.key] {
		return "repeated key " + r.Key
	}
	if prev, ok := c.served[req.key]; ok && prev != r.Calibrations {
		return fmt.Sprintf("key %s served %d and %d calibrations", r.Key, prev, r.Calibrations)
	}
	if !req.twin {
		c.solved[req.key] = true
	}
	c.served[req.key] = r.Calibrations
	return ""
}

// checkAll runs every check on a list of answers, verifying on conns
// goroutines, and returns the failure message per request.
func (c *checker) checkAll(reqs []request, out []result) []string {
	msgs := make([]string, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(reqs); i += conns {
				msgs[i] = c.verify(&reqs[i], &out[i])
			}
		}()
	}
	wg.Wait()
	for i := range msgs {
		if msgs[i] == "" {
			msgs[i] = c.record(&reqs[i], &out[i])
		}
	}
	return msgs
}

// quality sums the paper's objective terms over answered requests.
type quality struct {
	cal, lower, used, m int
}

func (q *quality) add(inst *calib.Instance, r *api.SolveResponse) {
	q.cal += r.Calibrations
	q.lower += r.LowerBound
	q.used += r.MachinesUsed
	q.m += inst.M
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (q quality) calibRatio() float64   { return ratio(float64(q.cal), float64(q.lower)) }
func (q quality) machineRatio() float64 { return ratio(float64(q.used), float64(q.m)) }

// setupRun is one set-up: inputs generated, stack started, setup
// requests answered, replication drained.
type setupRun struct {
	in      *inputs
	st      *stack
	chk     *checker
	elapsed time.Duration
	quality quality
}

// setUp generates the workload's inputs, starts its stack and sends the
// setup list (warm-up or base set). The clock stops at the first
// measured request's start; the setup answers are checked after that.
func setUp(w *workload, seed int64, n int, tr *tracer) (*setupRun, error) {
	start := time.Now()
	in, err := w.inputs(seed, n)
	if err != nil {
		return nil, err
	}
	st, err := startStack(w.routed, tr)
	if err != nil {
		return nil, err
	}
	out := make([]result, len(in.setup))
	drive(st, tr, in.setup, out)
	if err := st.drainReplication(); err != nil {
		st.close()
		return nil, err
	}
	s := &setupRun{in: in, st: st, chk: newChecker(st), elapsed: time.Since(start)}
	for i, msg := range s.chk.checkAll(in.setup, out) {
		if msg != "" {
			st.close()
			return nil, fmt.Errorf("setup request %d: %s", i, msg)
		}
		s.quality.add(in.setup[i].inst, out[i].resp)
	}
	return s, nil
}

// sample is one measured request and its answer, kept for the traced
// run's serving-layer timings.
type sample struct {
	inst *calib.Instance
	resp *api.SolveResponse
}

// maxSamples bounds the requests the traced run re-times per layer.
const maxSamples = 4096

// phase is the outcome of one measured phase.
type phase struct {
	lat       []time.Duration // failed requests carry the phase's wall time
	ok        []bool
	wall      time.Duration
	attempted int
	failed    int
	failures  []string
	quality   quality
	twins     int
	attempts  int
	affinity  int
	samples   []sample
	// before/after are the backends' and the router's series around the
	// phase, after includes the replication drain that follows it.
	before, after   tally
	fbefore, fafter tally
	// allocBytes and gcs are the runtime's allocation and collection
	// counts while requests were in flight, checks excluded.
	allocBytes, gcs uint64
	meanLatMS       float64
}

// measure runs the fixed measured list in segments, checking each
// segment's answers while the clock is stopped.
func measure(w *workload, s *setupRun, tr *tracer) (*phase, error) {
	st, in := s.st, s.in
	p := &phase{attempted: in.n}
	every := (in.n + maxSamples - 1) / maxSamples
	p.before, p.fbefore = tallyOf(st.registries()...), tallyOf(st.fleetRegistry())
	runtime.GC()
	tr.setPhase("measured")
	var m0, m1 runtime.MemStats
	err := in.segments(w.segment, func(lo int, reqs []request) error {
		out := make([]result, len(reqs))
		runtime.ReadMemStats(&m0)
		p.wall += drive(st, tr, reqs, out)
		runtime.ReadMemStats(&m1)
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcs += uint64(m1.NumGC - m0.NumGC)
		for i, msg := range s.chk.checkAll(reqs, out) {
			r := &out[i]
			ok := msg == ""
			if ok {
				p.quality.add(reqs[i].inst, r.resp)
			} else {
				p.failed++
				if len(p.failures) < 5 {
					p.failures = append(p.failures, fmt.Sprintf("request %d: %s", lo+i, msg))
				}
			}
			p.lat = append(p.lat, r.latency())
			p.ok = append(p.ok, ok)
			p.attempts += r.call.attempts
			if r.call.route == "affinity" {
				p.affinity++
			}
			if reqs[i].twin {
				p.twins++
			}
			if tr != nil && ok && (lo+i)%every == 0 {
				p.samples = append(p.samples, sample{reqs[i].inst, r.resp})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := st.drainReplication(); err != nil {
		return nil, err
	}
	tr.setPhase("after")
	p.after, p.fafter = tallyOf(st.registries()...), tallyOf(st.fleetRegistry())
	for i, ok := range p.ok {
		if !ok {
			p.lat[i] = p.wall
		}
	}
	var sum time.Duration
	for _, l := range p.lat {
		sum += l
	}
	p.meanLatMS = ms(sum) / float64(len(p.lat))
	p.phaseChecks()
	return p, nil
}

// retainedHeapMB is HeapAlloc after a full collection, in MiB, while
// st's servers and caches are live; the caller drops its own request
// lists and answers first.
func retainedHeapMB(st *stack) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(st)
	return float64(m.HeapAlloc) / (1 << 20)
}

// phaseChecks compares the program's own counters with what the
// answers said: every twin is exactly one cache hit, everything else
// exactly one solve, nothing spilled off its owner.
func (p *phase) phaseChecks() {
	d, fd := p.after.minus(p.before), p.fafter.minus(p.fbefore)
	solves := p.attempted - p.twins
	fail := func(format string, args ...any) {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
		p.failed = max(p.failed, 1)
	}
	if int(d[obs.MCacheHits]) != p.twins {
		fail("cache_hits_total grew by %v, want %d", d[obs.MCacheHits], p.twins)
	}
	if int(d[obs.MSolveSeconds+"_count"]) != solves {
		fail("%d solves ran, want %d", int(d[obs.MSolveSeconds+"_count"]), solves)
	}
	if solves == 0 && d[obs.MCacheMisses] != 0 {
		fail("cache_misses_total grew by %v", d[obs.MCacheMisses])
	}
	if fd[obs.MFleetSpillover] != 0 {
		fail("fleet_spillover_total grew by %v", fd[obs.MFleetSpillover])
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
