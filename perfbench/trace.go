package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"

	"calib/internal/fleet"
)

// Span layers, named after the module whose boundary they time.
const (
	layerClient    = "client"          // benchmark: one client.Client.Solve call
	layerAttempt   = "client.attempt"  // client transport: one HTTP attempt
	layerFleet     = "fleet"           // router handler
	layerForward   = "fleet.forward"   // router transport: a /v1/solve forward
	layerReplicate = "fleet.replicate" // router transport: a replica write
	layerProbe     = "fleet.probe"     // router transport: health probes and transfers
	layerServer    = "server"          // ised handler
)

// span is one timed layer boundary. Spans of one request share the
// request's X-Request-Id; replica writes carry none.
type span struct {
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	ID     string `json:"id,omitempty"`
	Node   string `json:"node,omitempty"`
	Method string `json:"method,omitempty"`
	Path   string `json:"path,omitempty"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op and the wrappers it would
// install are not installed at all.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	phase string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), phase: "setup"} }

func (t *tracer) setPhase(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

func (t *tracer) add(s span, start, end time.Time) {
	if t == nil {
		return
	}
	s.Start, s.End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.mu.Lock()
	s.Phase = t.phase
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// measured returns the spans recorded in the measured phase.
func (t *tracer) measured() []span {
	var out []span
	for _, s := range t.spans {
		if s.Phase == "measured" {
			out = append(out, s)
		}
	}
	return out
}

// handler wraps h in a timing span for layer, caused by a request from
// the parent layer.
func (t *tracer) handler(layer, parent, node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{Layer: layer, Parent: parent, ID: r.Header.Get("X-Request-Id"), Node: node,
			Method: r.Method, Path: r.URL.Path}, start, time.Now())
	})
}

// roundTripper wraps the router's forwarding transport, telling solve
// forwards from replica writes and probes by method and path.
func (t *tracer) roundTripper(base http.RoundTripper) http.RoundTripper {
	return &timedTransport{base: base, tr: t}
}

type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (tt *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.base.RoundTrip(r)
	layer := layerProbe
	switch {
	case r.URL.Path == "/v1/solve":
		layer = layerForward
	case r.URL.Path == "/v1/cache/entries" && r.Method == http.MethodPost:
		layer = layerReplicate
	}
	tt.tr.add(span{Layer: layer, Parent: layerFleet, ID: r.Header.Get("X-Request-Id"),
		Node: r.Header.Get(fleet.HeaderNode), Method: r.Method, Path: r.URL.Path}, start, time.Now())
	return resp, err
}

// call collects what the client transport saw of one Solve call: the
// request ID it minted, the fleet's routing headers, and its attempts.
type call struct {
	id       string
	node     string
	route    string
	attempts int
}

type callKey struct{}

// capture is the client's transport wrapper: it files the response
// headers the output checks need into the call riding on the request's
// context, and in the traced run times each attempt.
type capture struct {
	base http.RoundTripper
	tr   *tracer
}

func (c *capture) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := c.base.RoundTrip(r)
	end := time.Now()
	id := r.Header.Get("X-Request-Id")
	if cl, ok := r.Context().Value(callKey{}).(*call); ok {
		cl.id = id
		cl.attempts++
		if resp != nil {
			cl.node = resp.Header.Get(fleet.HeaderNode)
			cl.route = resp.Header.Get(fleet.HeaderRoute)
		}
	}
	c.tr.add(span{Layer: layerAttempt, Parent: layerClient, ID: id, Method: r.Method, Path: r.URL.Path}, start, end)
	return resp, err
}

func withCall(ctx context.Context, c *call) context.Context {
	return context.WithValue(ctx, callKey{}, c)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
