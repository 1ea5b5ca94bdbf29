// Command ised is the solver service daemon: it serves the /v1
// HTTP/JSON API (solve, batch, healthz) backed by the robust solving
// ladder, a canonicalization-keyed schedule cache, and admission
// control with load shedding (see docs/SERVICE.md).
//
// Usage:
//
//	ised [-addr host:port] [-addr-file FILE]
//	     [-max-inflight N] [-max-queue N] [-queue-wait D]
//	     [-cache N]
//	     [-cache-file FILE] [-cache-save-interval D] [-drain-wait D]
//	     [-timeout D] [-budget N]
//	     [-faults SPEC] [-fault-seed N]
//	     [-flight N] [-trace-log FILE] [-trace-log-max-bytes N]
//	     [-slo-objective F] [-slo-threshold D]
//	     [-cache-transfer-open]
//	     [-trace] [-trace-json FILE] [-metrics] [-metrics-out FILE]
//	     [-pprof addr]
//
// The daemon always exports /metrics (Prometheus text), /debug/vars
// (expvar), /debug/pprof, and the request flight recorder at
// /debug/requests on its own address — -pprof adds a second, separate
// listener for operators who keep debug endpoints off the service
// port. -timeout and -budget here are the per-request maxima: a
// request may ask for less via timeout_ms/budget, never more.
//
// -trace-log appends every request's decision record — the same record
// /debug/requests serves — to a CRC-framed JSONL file, size-rotated at
// -trace-log-max-bytes and torn-tail tolerant like the batch journal,
// so a day of production traffic can be replayed or audited offline.
// -slo-objective and -slo-threshold configure the slo_* burn-rate
// series (defaults: 99% of requests under 500ms, per route).
//
// With -cache-file the schedule cache survives restarts: it is
// restored at boot (corrupt entries discarded, counted in
// cache_restore_corrupt_total) and snapshotted atomically on graceful
// shutdown and every -cache-save-interval, so even a SIGKILLed daemon
// comes back with its last periodic snapshot.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /v1/healthz
// flips to 503 {"draining": true} immediately, -drain-wait gives load
// balancers time to divert traffic, in-flight solves finish (they are
// already bounded by -timeout/-budget), and the cache is saved. A
// second signal kills the process the hard way.
//
// -faults arms deterministic fault injection (chaos testing only; see
// docs/ROBUSTNESS.md): a comma-separated list of point:rate[:arg],
// e.g. -faults solve_panic:0.1,solve_latency:0.5:20ms, driven by the
// seeded schedule of -fault-seed.
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
	"calib/internal/fault"
	"calib/internal/obs"
	"calib/internal/obs/obshttp"
	"calib/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ised:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("ised", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address; port 0 picks a free port")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts and CI)")
	maxInflight := fs.Int("max-inflight", 0, "bound on concurrently admitted solves (0 = 256); beyond it requests queue briefly, then shed with 429")
	maxQueue := fs.Int("max-queue", 0, "bound on requests waiting for an admission slot (0 = same as -max-inflight, -1 = shed immediately)")
	queueWait := fs.Duration("queue-wait", 0, "how long a queued request waits for a slot before shedding (0 = 100ms)")
	cacheSize := fs.Int("cache", 0, "canonical schedule cache capacity in entries (0 = 4096, -1 = disabled)")
	cacheFile := fs.String("cache-file", "", "persist the schedule cache to this snapshot file (restored at boot, saved on shutdown)")
	cacheEvery := fs.Duration("cache-save-interval", 0, "also snapshot the cache periodically (0 = only on graceful shutdown)")
	drainWait := fs.Duration("drain-wait", 0, "after the first signal, serve with healthz draining for this long before closing the listener")
	flight := fs.Int("flight", 0, "request flight recorder capacity behind /debug/requests (0 = 2048, -1 = disabled)")
	traceLog := fs.String("trace-log", "", "append every request's decision record to this JSONL file (CRC-framed, crash-tolerant)")
	traceLogMax := fs.Int64("trace-log-max-bytes", 64<<20, "rotate -trace-log once it would exceed this many bytes, keeping one rotated file (0 = never)")
	sloObjective := fs.Float64("slo-objective", 0, "fraction of requests that must answer under -slo-threshold (0 = 0.99)")
	sloThreshold := fs.Duration("slo-threshold", 0, "per-request latency objective for the slo_* series (0 = 500ms)")
	transferOpen := fs.Bool("cache-transfer-open", false, "allow non-loopback peers to use /v1/cache/entries (multi-host fleet replication)")
	faults := fault.Register(fs)
	tele := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tele.Start("ised", stderr); err != nil {
		return err
	}
	defer tele.Finish(stderr)

	// The daemon always has a registry — a service without metrics is
	// blind — reusing the telemetry one when a -metrics/-pprof flag
	// already created it.
	reg := tele.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		obs.Declare(reg)
	}
	obs.DeclareService(reg)

	inj, err := faults.Build(reg)
	if err != nil {
		return err
	}

	var tlog *server.TraceLog
	if *traceLog != "" {
		tlog, err = server.OpenTraceLog(*traceLog, *traceLogMax, reg)
		if err != nil {
			return fmt.Errorf("trace log: %w", err)
		}
		defer func() {
			if err := tlog.Close(); err != nil {
				fmt.Fprintf(stderr, "ised: trace log close failed: %v\n", err)
			}
		}()
	}

	srv := server.New(server.Config{
		MaxInFlight:       *maxInflight,
		MaxQueue:          *maxQueue,
		QueueWait:         *queueWait,
		CacheEntries:      *cacheSize,
		MaxTimeout:        tele.Timeout(),
		MaxBudget:         tele.Budget(),
		Metrics:           reg,
		Fault:             inj,
		FlightRecords:     *flight,
		TraceLog:          tlog,
		SLOObjective:      *sloObjective,
		SLOThreshold:      *sloThreshold,
		Trace:             tele.Trace,
		CacheTransferOpen: *transferOpen,
	})

	if *cacheFile != "" {
		// A damaged or unreadable snapshot costs cache entries, never
		// the boot: intact entries load, the rest are counted and the
		// daemon starts cold for them.
		st, err := srv.LoadCache(*cacheFile)
		if err != nil {
			fmt.Fprintf(stderr, "ised: cache restore from %s failed (starting cold): %v\n", *cacheFile, err)
		} else if st.Restored > 0 || st.Corrupt > 0 {
			fmt.Fprintf(stderr, "ised: cache restored from %s: %d entries, %d corrupt discarded\n",
				*cacheFile, st.Restored, st.Corrupt)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", srv)
	mux.Handle("/debug/requests", srv)    // flight recorder: list view
	mux.Handle("/debug/requests/", srv)   // flight recorder: per-request detail
	mux.Handle("/", obshttp.Handler(reg)) // /metrics, /debug/vars, /debug/pprof

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Atomic (temp + rename): a file-watching fleet roster or smoke
		// script polling this file must never read a torn address.
		if err := atomicfile.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stderr, "ised: serving /v1/solve, /v1/batch, /v1/healthz and /metrics on http://%s\n", bound)

	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	// Periodic snapshots make SIGKILL survivable: the worst case loses
	// one interval of cache warmth, never the file (saves are atomic).
	saverDone := make(chan struct{})
	if *cacheFile != "" && *cacheEvery > 0 {
		go func() {
			defer close(saverDone)
			t := time.NewTicker(*cacheEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if _, err := srv.SaveCache(*cacheFile); err != nil {
						fmt.Fprintf(stderr, "ised: periodic cache save failed: %v\n", err)
					}
				}
			}
		}()
	} else {
		close(saverDone)
	}

	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	// Drain before closing the listener: healthz flips to 503 +
	// draining so load balancers divert new traffic, while solve/batch
	// keep answering until Shutdown.
	srv.BeginDrain()
	fmt.Fprintln(stderr, "ised: draining (healthz now 503)")
	if *drainWait > 0 {
		time.Sleep(*drainWait)
	}
	fmt.Fprintln(stderr, "ised: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-saverDone
	if *cacheFile != "" {
		if n, err := srv.SaveCache(*cacheFile); err != nil {
			fmt.Fprintf(stderr, "ised: final cache save failed: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "ised: cache saved to %s (%d entries)\n", *cacheFile, n)
		}
	}
	return nil
}
