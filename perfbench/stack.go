package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"calib/client"
	"calib/internal/fleet"
	"calib/internal/obs"
	"calib/internal/server"
)

// conns is the client's connection bound: nproc on the 2-vCPU machines
// the benchmark is tuned for. More would build queues the admission
// layer sheds, which this benchmark deliberately leaves unmeasured.
const conns = 2

// backend is one in-process ised.
type backend struct {
	name string
	srv  *server.Server
	url  string
}

// stack is the real serving stack assembled through its public
// constructors with the daemons' defaults: one ised as cmd/ised builds
// it from its flag defaults, or three behind the router as
// cmd/isedfleet builds it, each on a loopback listener.
type stack struct {
	backends  []*backend
	fleet     *fleet.Fleet
	servers   []*http.Server
	serving   sync.WaitGroup
	transport *http.Transport
	client    *client.Client
}

// listen serves h on a fresh loopback port and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.servers = append(st.servers, hs)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		// Serve returns ErrServerClosed once close shuts it down; a
		// listener failure before that shows up as failed requests.
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// fleetSize is the number of ised behind the router.
const fleetSize = 3

// startStack builds one ised, or fleetSize of them behind the router
// when routed is set, and a client bound to conns connections. A
// non-nil tracer wraps every handler and transport in timing spans.
func startStack(routed bool, tr *tracer) (*stack, error) {
	st := &stack{}
	nBackends, caller := 1, layerAttempt
	if routed {
		nBackends, caller = fleetSize, layerForward
	}
	for i := 0; i < nBackends; i++ {
		reg := obs.NewRegistry()
		obs.Declare(reg)
		obs.DeclareService(reg)
		b := &backend{name: fmt.Sprintf("ised-%d", i), srv: server.New(server.Config{Metrics: reg})}
		var err error
		if b.url, err = st.listen(tr.handler(layerServer, caller, b.name, b.srv)); err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, b)
	}
	front := st.backends[0].url
	if routed {
		members := make([]fleet.Member, len(st.backends))
		for i, b := range st.backends {
			members[i] = fleet.Member{Name: b.name, URL: b.url}
		}
		cfg := fleet.Config{Members: members, Replication: fleet.DefaultReplication, Metrics: obs.NewRegistry()}
		if tr != nil {
			// The router's default forwarding transport, wrapped.
			cfg.HTTPClient = &http.Client{Transport: tr.roundTripper(&http.Transport{
				MaxIdleConns:        1024,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     90 * time.Second,
			})}
		}
		f, err := fleet.New(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		f.Start()
		st.fleet = f
		if front, err = st.listen(tr.handler(layerFleet, layerAttempt, "router", fleet.NewRouter(f))); err != nil {
			st.close()
			return nil, err
		}
	}
	st.transport = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: 90 * time.Second}
	st.client = client.New(front)
	st.client.HTTPClient = &http.Client{Transport: &capture{base: st.transport, tr: tr}}
	return st, nil
}

// registries returns the backends' metric registries.
func (st *stack) registries() []*obs.Registry {
	regs := make([]*obs.Registry, len(st.backends))
	for i, b := range st.backends {
		regs[i] = b.srv.Metrics()
	}
	return regs
}

// fleetRegistry returns the router's registry (nil without a router).
func (st *stack) fleetRegistry() *obs.Registry {
	if st.fleet == nil {
		return nil
	}
	return st.fleet.Metrics()
}

// drainReplication waits until every replica write the router queued
// has been delivered, failed or dropped: the queue depth gauge at 0 and
// the delivery counters caught up with the enqueue counter.
func (st *stack) drainReplication() error {
	if st.fleet == nil {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		t := tallyOf(st.fleetRegistry())
		settled := t[obs.MFleetReplSent] + t[obs.MFleetReplErrors] + t[obs.MFleetReplDropped] +
			t[obs.MFleetReplCoalesced] + t[obs.MFleetHintWritten]
		if t[obs.MFleetReplQueue] == 0 && settled >= t[obs.MFleetReplEnqueued] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication did not drain: %v of %v writes settled", settled, t[obs.MFleetReplEnqueued])
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close stops the listeners front to back (the router before the
// fleet's prober and replicator, then the backends), drops the client's
// connections, and waits for every serving goroutine to return. Wherever
// a run goes on to report, every request has been answered and every
// replica write settled by then, so Close drops nothing; Shutdown would
// wait five seconds on a connection that a transport dialed but never
// used.
func (st *stack) close() {
	for i := len(st.servers) - 1; i >= 0; i-- {
		// Close's error is the listener's; nothing is left to serve.
		_ = st.servers[i].Close()
		if i == len(st.servers)-1 && st.fleet != nil {
			st.fleet.Close()
		}
	}
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
	st.serving.Wait()
}

// tally sums series across registries: counters by name and by
// name{label value}, gauges by name, histograms as name_count and
// name_sum.
type tally map[string]float64

func tallyOf(regs ...*obs.Registry) tally {
	t := tally{}
	for _, r := range regs {
		s := r.Snapshot()
		for _, c := range s.Counters {
			t[c.Name] += float64(c.Value)
			if c.Label != "" {
				t[c.Name+"{"+c.LVal+"}"] += float64(c.Value)
			}
		}
		for _, g := range s.Gauges {
			t[g.Name] += g.Value
		}
		for _, h := range s.Hists {
			t[h.Name+"_count"] += float64(h.Count)
			t[h.Name+"_sum"] += h.Sum
		}
	}
	return t
}

// minus returns t - u per series.
func (t tally) minus(u tally) tally {
	d := tally{}
	for k, v := range t {
		d[k] = v - u[k]
	}
	return d
}
