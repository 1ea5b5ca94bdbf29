// Command isedfleet is the fleet router: it fronts N ised backends
// with the same /v1 HTTP/JSON surface a single daemon serves,
// consistent-hashing each request's canonical instance key so
// equivalent solves always land on the node that already holds the
// cached schedule, and failing over to the key's ring successors in
// inheritance order when that node cannot serve (see docs/SERVICE.md,
// "Fleet").
//
// Usage:
//
//	isedfleet -backends URL[,URL...] | -roster FILE
//	          [-addr host:port] [-addr-file FILE]
//	          [-replicas N] [-probe-interval D] [-probe-timeout D]
//	          [-fail-after N] [-readmit-after N] [-roster-interval D]
//	          [-retry-after D]
//	          [-replication N] [-hint-dir DIR] [-hint-cap N]
//	          [-replication-queue N]
//	          [-trace] [-metrics] [-pprof addr]
//
// Membership is either static (-backends, comma-separated "name=url"
// or bare url entries) or declarative (-roster, a JSON file watched
// for changes: nodes can be added and removed without restarting the
// router; each ring rebuild is atomic and logged). Every backend is
// health-probed; a node that fails -fail-after consecutive probes is
// ejected from routing and readmitted after -readmit-after successful
// probes once it recovers.
//
// Replication (-replication, default 2) write-behinds every fresh
// solve's cached schedule to the key's ring successors, so a node loss
// does not cold-start its keys: the router peeks the surviving replica
// (X-Fleet-Route: replica-hit) instead of re-solving. Writes aimed at
// a down node park as hinted handoff (persisted under -hint-dir when
// set) and replay when it returns, together with a snapshot-diff warm
// transfer, before the node re-enters routing. -replication 1 turns
// all of this off and reproduces single-copy routing exactly.
//
// The router always exports /metrics (the fleet_* catalogue —
// spillover by reason, ejections, ring rebuilds — next to the usual
// export surface), /debug/vars and /debug/pprof on its own address.
// /v1/healthz answers the fleet-level view: per-node health and ring
// statistics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"calib/internal/atomicfile"
	"calib/internal/cliobs"
	"calib/internal/fleet"
	"calib/internal/obs"
	"calib/internal/obs/obshttp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "isedfleet:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("isedfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8090", "listen address; port 0 picks a free port")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (atomic; for scripts and CI)")
	backends := fs.String("backends", "", "static roster: comma-separated name=url or url entries")
	roster := fs.String("roster", "", "JSON roster file, watched for membership changes (see docs/SERVICE.md)")
	rosterEvery := fs.Duration("roster-interval", time.Second, "how often to poll -roster for changes")
	replicas := fs.Int("replicas", 0, "virtual nodes per backend on the consistent-hash ring (0 = 128)")
	probeEvery := fs.Duration("probe-interval", time.Second, "health probe spacing per backend")
	probeTimeout := fs.Duration("probe-timeout", 2*time.Second, "health probe timeout")
	failAfter := fs.Int("fail-after", 3, "consecutive failures that eject a backend from routing")
	readmitAfter := fs.Int("readmit-after", 2, "consecutive successful probes that readmit an ejected backend")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint when every candidate node refused")
	replication := fs.Int("replication", fleet.DefaultReplication,
		"replication factor: nodes (owner included) holding each solved key's cache entry; 1 disables replication")
	hintDir := fs.String("hint-dir", "", "persist hinted-handoff entries for down nodes in this directory (empty = memory only)")
	hintCap := fs.Int("hint-cap", 0, "max hinted-handoff entries per down node, oldest dropped first (0 = 512)")
	replQueue := fs.Int("replication-queue", 0, "max pending replica writes, oldest dropped first (0 = 1024)")
	tele := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tele.Start("isedfleet", stderr); err != nil {
		return err
	}
	defer tele.Finish(stderr)

	var members []fleet.Member
	var err error
	switch {
	case *backends != "" && *roster != "":
		return errors.New("-backends and -roster are mutually exclusive")
	case *backends != "":
		members, err = fleet.ParseStatic(*backends)
	case *roster != "":
		members, err = fleet.LoadRoster(*roster)
	default:
		return errors.New("no backends: pass -backends or -roster")
	}
	if err != nil {
		return err
	}

	reg := tele.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	obs.DeclareFleet(reg)

	f, err := fleet.New(fleet.Config{
		Members:          members,
		Replicas:         *replicas,
		ProbeInterval:    *probeEvery,
		ProbeTimeout:     *probeTimeout,
		FailAfter:        *failAfter,
		ReadmitAfter:     *readmitAfter,
		RetryAfter:       *retryAfter,
		Replication:      *replication,
		HintDir:          *hintDir,
		HintCap:          *hintCap,
		ReplicationQueue: *replQueue,
		Metrics:          reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	f.Start()
	defer f.Close()

	watcherDone := make(chan struct{})
	if *roster != "" {
		go func() {
			defer close(watcherDone)
			f.WatchRoster(*roster, *rosterEvery, ctx.Done())
		}()
	} else {
		close(watcherDone)
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", fleet.NewRouter(f))
	mux.Handle("/", obshttp.Handler(reg)) // /metrics, /debug/vars, /debug/pprof

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := atomicfile.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stderr, "isedfleet: routing %d backends on http://%s\n", len(members), bound)

	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "isedfleet: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-watcherDone
	return nil
}
