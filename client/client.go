// Package client is the Go client of the ised solver service
// (internal/server, cmd/ised). It speaks the api package's wire types
// over HTTP/JSON and bakes in the retry discipline the service is
// designed around: 429 and 503 responses are retried with capped
// exponential backoff, honoring the server's Retry-After hint, so a
// saturated daemon sheds load onto patient clients instead of a
// thundering herd.
//
//	cl := client.New("http://localhost:8080")
//	resp, err := cl.Solve(ctx, &api.SolveRequest{Instance: inst})
//
// The zero number of retries means "use the default" (4 attempts);
// set MaxRetries to -1 to fail fast on the first refusal.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"calib/api"
)

// Client calls an ised daemon. The zero value is not usable; create
// with New and adjust fields before the first call.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:8080";
	// the client appends /v1/... paths.
	BaseURL string
	// HTTPClient is the transport to use (nil = http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try for
	// retryable failures: 429, 503, and transport errors. 0 means the
	// default (4); negative disables retries.
	MaxRetries int
	// BaseDelay seeds the exponential backoff (0 = 100ms). Each sleep
	// is drawn uniformly from [0, min(BaseDelay·2^attempt, MaxDelay)]
	// — full jitter, so retrying clients desynchronize — and a server
	// Retry-After hint floors the result (the server's ask wins over
	// the jitter's optimism).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (0 = 5s).
	MaxDelay time.Duration
	// Breaker, when non-nil, short-circuits calls while the daemon is
	// persistently failing: after enough transport errors / 429s /
	// 503s in a rolling window the breaker opens and Solve/Batch fail
	// fast with ErrBreakerOpen instead of hammering a struggling
	// service; periodic half-open probes close it when the daemon
	// recovers. Create with NewBreaker. nil disables the feature.
	Breaker *Breaker
	// Breakers, when non-nil and Breaker is nil, scopes the circuit to
	// this client's BaseURL within a shared BreakerGroup: several
	// clients pointed at different nodes of one fleet can share the
	// group while each node's failures trip only that node's breaker.
	Breakers *BreakerGroup
}

// New returns a Client for the daemon at baseURL with default
// transport and retry policy.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// APIError is a non-2xx response that was not retried away. It wraps
// the server's JSON error body.
type APIError struct {
	// StatusCode is the HTTP status of the final attempt.
	StatusCode int
	// Message is the server's error description.
	Message string
	// RetryAfter is the server's backoff hint on 429s (0 if absent).
	RetryAfter time.Duration
	// RequestID is the request's X-Request-ID: the server's echo when
	// the body or header carried one, else the ID this client sent.
	// Grep it in server logs or open /debug/requests/{id} on the daemon.
	RequestID string
	// Attempts is the flight history of the whole call, one entry per
	// HTTP attempt (the entry that produced this error is last).
	Attempts []AttemptInfo
}

// AttemptInfo is one HTTP attempt of a retried call.
type AttemptInfo struct {
	// Status is the HTTP status answered (0 = transport error).
	Status int
	// ElapsedMS is the attempt's wall time in milliseconds.
	ElapsedMS float64
	// BackoffMS is the backoff slept after this attempt (0 on the last).
	BackoffMS float64
	// BreakerState is the circuit breaker's state after the attempt
	// reported ("closed", "half-open", "open").
	BreakerState string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("ised: %d: %s (request %s, %d attempts)",
			e.StatusCode, e.Message, e.RequestID, len(e.Attempts))
	}
	return fmt.Sprintf("ised: %d: %s", e.StatusCode, e.Message)
}

// Solve solves one instance via POST /v1/solve.
func (c *Client) Solve(ctx context.Context, req *api.SolveRequest) (*api.SolveResponse, error) {
	var out api.SolveResponse
	if err := c.post(ctx, "/v1/solve", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch solves many instances via POST /v1/batch. Results align
// index-for-index with req.Instances.
func (c *Client) Batch(ctx context.Context, req *api.BatchRequest) (*api.BatchResponse, error) {
	var out api.BatchResponse
	if err := c.post(ctx, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health reports the daemon's /v1/healthz. It is not retried: health
// checks should see refusals, not mask them.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("decoding health: %w", err)
	}
	return &h, nil
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// breaker resolves the circuit protecting this client's endpoint: the
// explicit Breaker when set, else this BaseURL's slot in the shared
// Breakers group, else none.
func (c *Client) breaker() *Breaker {
	if c.Breaker != nil {
		return c.Breaker
	}
	return c.Breakers.For(c.BaseURL)
}

func (c *Client) retries() int {
	switch {
	case c.MaxRetries > 0:
		return c.MaxRetries
	case c.MaxRetries < 0:
		return 0
	default:
		return 4
	}
}

// wireBuf is a call's pooled wire buffers: the encoded request body,
// with an encoder bound once for the bodies the api codec does not
// cover, and the buffer a /v1/solve answer is read into and decoded
// from. A steady stream of Solve calls reuses them instead of
// re-allocating bodies (and encoder state) per request.
type wireBuf struct {
	buf  bytes.Buffer
	enc  *json.Encoder
	resp bytes.Buffer
}

var wirePool = sync.Pool{New: func() any {
	e := new(wireBuf)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// mintRequestID generates the X-Request-ID for one logical call: 16
// hex digits, shared by every retry attempt, so the server's decision
// log shows the attempts of one call under one ID.
func mintRequestID() string {
	const digits = "0123456789abcdef"
	v := rand.Uint64()
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// post sends body and decodes the 200 response into out, retrying
// retryable failures with capped exponential backoff. The request body
// is marshalled once and replayed per attempt under one request ID;
// a final *APIError carries that ID and the attempt flight history.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	return c.postID(ctx, path, mintRequestID(), body, out)
}

// postID is post with a caller-chosen request ID: the fleet client
// keeps one ID across its failover attempts on different nodes, so
// every backend's decision log files the hops under the same request.
func (c *Client) postID(ctx context.Context, path, id string, body, out any) error {
	eb := wirePool.Get().(*wireBuf)
	defer wirePool.Put(eb)
	eb.buf.Reset()
	if req, ok := body.(*api.SolveRequest); ok {
		// The codec's bytes are json.Marshal's; the newline keeps the
		// body what Encode wrote.
		eb.buf.Write(append(api.AppendSolveRequest(eb.buf.AvailableBuffer(), req), '\n'))
	} else if err := eb.enc.Encode(body); err != nil {
		return fmt.Errorf("encoding request: %w", err)
	}
	buf := eb.buf.Bytes()
	base := c.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}
	br := c.breaker()
	var attempts []AttemptInfo
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := br.Allow(); err != nil {
			return err
		}
		t0 := time.Now()
		lastErr = c.once(ctx, path, id, buf, out, &eb.resp)
		retryable, hint := retryInfo(lastErr)
		// The breaker counts service health, not request validity: a
		// 422 or 400 is a healthy daemon doing its job, so only
		// retryable failures (transport, 429, 503) count against it.
		br.Report(!retryable)
		ai := AttemptInfo{
			ElapsedMS:    float64(time.Since(t0).Microseconds()) / 1000,
			BreakerState: br.State(),
		}
		var ae *APIError
		if errors.As(lastErr, &ae) {
			ai.Status = ae.StatusCode
		} else if lastErr == nil {
			ai.Status = http.StatusOK
		}
		if lastErr == nil {
			return nil
		}
		if !retryable || attempt >= c.retries() {
			if ae != nil {
				if ae.RequestID == "" {
					ae.RequestID = id
				}
				ae.Attempts = append(attempts, ai)
			}
			return lastErr
		}
		delay := backoffDelay(base, maxDelay, hint, attempt, rand.Int64N)
		ai.BackoffMS = float64(delay.Microseconds()) / 1000
		attempts = append(attempts, ai)
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
}

// backoffDelay computes the sleep before retry `attempt` (0-based):
// the exponential ceiling min(base·2^attempt, maxDelay) — grown by
// doubling, never by shifting, so a large attempt count cannot
// overflow into a negative or zero delay — with full jitter (uniform
// in [0, ceiling]), floored by the server's Retry-After hint. rnd is
// the uniform sampler (rand.Int64N in production, fixed in tests).
func backoffDelay(base, maxDelay, hint time.Duration, attempt int, rnd func(int64) int64) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d <= 0 || d > maxDelay {
		d = maxDelay
	}
	d = time.Duration(rnd(int64(d) + 1))
	if hint > d {
		d = hint
	}
	return d
}

// once performs a single HTTP attempt. A /v1/solve answer is read
// whole into rb and decoded there by the api codec; other bodies
// stream through encoding/json.
func (c *Client) once(ctx context.Context, path, id string, body []byte, out any, rb *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return &transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if sr, ok := out.(*api.SolveResponse); ok {
		rb.Reset()
		if _, err = rb.ReadFrom(resp.Body); err == nil {
			err = api.DecodeSolveResponse(rb.Bytes(), sr)
		}
	} else {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// transportError marks a connection-level failure as retryable.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// retryInfo classifies an attempt's failure: 429 and 503 are the
// server telling us to come back later (429 carries a Retry-After
// hint), and transport errors are worth one more try. 4xx validation
// errors and 500s are not retried — the same request would fail the
// same way.
func retryInfo(err error) (retryable bool, hint time.Duration) {
	var te *transportError
	if errors.As(err, &te) {
		return true, 0
	}
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.StatusCode {
		case http.StatusTooManyRequests:
			return true, ae.RetryAfter
		case http.StatusServiceUnavailable:
			return true, ae.RetryAfter
		}
	}
	return false, 0
}

// decodeError turns a non-2xx response into an *APIError, reading the
// Retry-After header — both RFC 9110 forms, delay-seconds and
// HTTP-date — and the JSON body when present.
func decodeError(resp *http.Response) error {
	ae := &APIError{StatusCode: resp.StatusCode, RequestID: resp.Header.Get("X-Request-Id")}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		} else if at, err := http.ParseTime(ra); err == nil {
			if d := time.Until(at); d > 0 {
				ae.RetryAfter = d
			}
		}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var body api.Error
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		ae.Message = body.Error
		if ae.RetryAfter == 0 && body.RetryAfterSeconds > 0 {
			ae.RetryAfter = time.Duration(body.RetryAfterSeconds) * time.Second
		}
		if body.RequestID != "" {
			ae.RequestID = body.RequestID
		}
	} else {
		ae.Message = strings.TrimSpace(string(raw))
	}
	return ae
}
