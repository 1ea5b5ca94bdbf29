package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"calib/api"
	"calib/internal/atomicfile"
	"calib/internal/ise"
	"calib/internal/server"
)

// TestRouterLifecycle boots the router daemon over two in-process ised
// backends, routes a solve and its cached twin through it, scrapes the
// fleet metrics, and shuts down via context cancellation — the same
// sequence scripts/fleet_smoke.sh runs against the built binaries.
func TestRouterLifecycle(t *testing.T) {
	b1 := httptest.NewServer(server.New(server.Config{}))
	defer b1.Close()
	b2 := httptest.NewServer(server.New(server.Config{}))
	defer b2.Close()

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-backends", "n1=" + b1.URL + ",n2=" + b2.URL,
			"-probe-interval", "50ms",
		}, io.Discard)
	}()

	addr := waitForAddr(t, addrFile, done)
	base := "http://" + addr

	var fh api.FleetHealth
	getJSON(t, base+"/v1/healthz", &fh)
	if fh.Status != "ok" || fh.HealthyNodes != 2 {
		t.Fatalf("fleet health: %+v", fh)
	}

	inst := ise.NewInstance(10, 1)
	inst.AddJob(0, 40, 5)
	inst.AddJob(30, 70, 8)
	first, node1 := solveVia(t, base, inst)
	if first.Cached || first.Schedule == nil || node1 == "" {
		t.Fatalf("first solve: %+v via %q", first, node1)
	}
	again, node2 := solveVia(t, base, inst)
	if !again.Cached || node2 != node1 {
		t.Fatalf("re-solve: cached=%v via %q, want cache hit via %q", again.Cached, node2, node1)
	}

	metrics := httpGet(t, base+"/metrics")
	if !strings.Contains(metrics, `fleet_requests_total{endpoint="solve"} 2`) {
		t.Fatalf("/metrics missing fleet request count:\n%s", metrics)
	}
	if !strings.Contains(metrics, "fleet_nodes 2") {
		t.Fatalf("/metrics missing fleet_nodes:\n%s", metrics)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not shut down")
	}
}

// TestRouterRosterFile: membership from -roster follows file rewrites
// without a restart.
func TestRouterRosterFile(t *testing.T) {
	b1 := httptest.NewServer(server.New(server.Config{}))
	defer b1.Close()
	b2 := httptest.NewServer(server.New(server.Config{}))
	defer b2.Close()

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	rosterFile := filepath.Join(dir, "roster.json")
	writeRoster := func(body string) {
		t.Helper()
		if err := atomicfile.WriteFile(rosterFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeRoster(`{"nodes": [{"name": "n1", "url": "` + b1.URL + `"}]}`)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-roster", rosterFile,
			"-roster-interval", "20ms",
		}, io.Discard)
	}()

	addr := waitForAddr(t, addrFile, done)
	base := "http://" + addr
	var fh api.FleetHealth
	getJSON(t, base+"/v1/healthz", &fh)
	if len(fh.Nodes) != 1 {
		t.Fatalf("initial roster: %+v", fh)
	}

	writeRoster(`{"nodes": [{"name": "n1", "url": "` + b1.URL + `"}, {"name": "n2", "url": "` + b2.URL + `"}]}`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, base+"/v1/healthz", &fh)
		if len(fh.Nodes) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("roster change never applied: %+v", fh)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not shut down")
	}
}

// TestRouterRosterTrailingSlash: roster URLs ending in "/" still route
// solves. Untrimmed, the router posted to "//v1/solve"; the backend's
// mux redirected that, the redirect turned the POST into a GET, and
// every solve failed with 405 while the health probes (which follow the
// same redirect) kept every node healthy.
func TestRouterRosterTrailingSlash(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	rosterFile := filepath.Join(dir, "roster.json")
	var nodes []string
	for _, name := range []string{"n1", "n2", "n3"} {
		b := httptest.NewServer(server.New(server.Config{}))
		defer b.Close()
		nodes = append(nodes, `{"name": "`+name+`", "url": "`+b.URL+`/"}`)
	}
	roster := `{"nodes": [` + strings.Join(nodes, ", ") + `]}`
	if err := atomicfile.WriteFile(rosterFile, []byte(roster), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-roster", rosterFile}, io.Discard)
	}()
	base := "http://" + waitForAddr(t, addrFile, done)

	inst := ise.NewInstance(10, 1)
	inst.AddJob(0, 40, 5)
	if out, node := solveVia(t, base, inst); out.Schedule == nil || node == "" {
		t.Fatalf("solve: %+v via %q", out, node)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not shut down")
	}
}

func TestBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("expected a flag error")
	}
	if err := run(context.Background(), nil, io.Discard); err == nil {
		t.Fatal("expected an error without backends")
	}
	if err := run(context.Background(), []string{"-backends", "a=http://x", "-roster", "y"}, io.Discard); err == nil {
		t.Fatal("expected -backends/-roster conflict error")
	}
}

func solveVia(t *testing.T, base string, inst *ise.Instance) (*api.SolveResponse, string) {
	t.Helper()
	buf, err := json.Marshal(api.SolveRequest{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("solve status %d: %s", resp.StatusCode, raw)
	}
	var out api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.Header.Get("X-Fleet-Node")
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

func waitForAddr(t *testing.T, path string, done <-chan error) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-done:
			t.Fatalf("router exited early: %v", err)
		default:
		}
		if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
			return strings.TrimSpace(string(raw))
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("address file never appeared")
	return ""
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
