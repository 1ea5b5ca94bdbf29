// Command perfbench is the layered end-to-end benchmark of the ised
// solver service and the isedfleet router. It assembles the daemons'
// default stacks in one process through their public constructors,
// serves them on loopback listeners, drives them with client.Client
// over real HTTP from at most two connections, and checks every
// answer. README.md describes the workloads, the metrics and the
// steadiness record; run.sh builds and runs it from a checkout:
//
//	bash perfbench/run.sh --workload cold-ladder --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 measures the same
// requests untraced and then traced, replays every solve through the
// solver's public functions, and prints the per-layer metrics. The
// last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix. Every measured phase is a fixed list of
// requests generated from the seed: --seconds sizes the list as
// seconds × rate, and no phase is bounded by time.
type workload struct {
	name string
	// limit is the latency limit of slo_attainment.
	limit time.Duration
	// rate sizes the measured list: about the rate the closed loop
	// sustains on a 2-vCPU machine.
	rate float64
	// routed puts the fleet router in front of three backends;
	// otherwise the clients call one backend.
	routed bool
	// segment splits the measured list into runs of this many requests,
	// checked while the clock is stopped (0 = one run).
	segment int
	inputs  func(seed int64, n int) (*inputs, error)
}

// The workloads and why each was chosen are described in README.md.
var workloads = []*workload{{
	name:   "cold-ladder",
	limit:  500 * time.Millisecond, // ised's default -slo-threshold
	rate:   200,
	inputs: coldInputs,
}, {
	name:    "hot-twins",
	limit:   5 * time.Millisecond,
	rate:    5000,
	segment: 8192,
	inputs:  hotInputs,
}, {
	name:    "fleet-mixed",
	limit:   25 * time.Millisecond,
	rate:    2200,
	routed:  true,
	segment: 8192,
	inputs:  fleetInputs,
}}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-ladder, hot-twins or fleet-mixed")
	seed := fs.Int64("seed", 1, "input seed: the same seed sends the same requests")
	seconds := fs.Int("seconds", 25, "sizes the measured request list (seconds × the workload's rate)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (empty = not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	n := int(math.Round(w.rate * float64(*seconds)))
	rep := &report{}
	rep.line("perfbench workload=%s seed=%d seconds=%d trace=%d requests=%d", w.name, *seed, *seconds, *traced, n)
	rep.line("go=%s GOMAXPROCS=%d nproc=%d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	var err error
	if *traced == 1 {
		spans := ""
		if *spansDir != "" {
			spans = filepath.Join(*spansDir, "spans-"+w.name+".jsonl")
		}
		err = runTraced(w, *seed, n, spans, rep)
	} else {
		err = runPlain(w, *seed, n, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		for _, f := range rep.failures {
			fmt.Fprintln(stderr, "perfbench: check failed:", f)
		}
		return 1
	}
	return 0
}

// runPlain sets up setupReps times, keeps the last stack, measures it
// and reports the end-to-end metrics.
func runPlain(w *workload, seed int64, n int, rep *report) error {
	var setups []float64
	var kept *setupRun
	for r := 0; r < setupReps; r++ {
		s, err := setUp(w, seed, n, nil)
		if err != nil {
			if kept != nil {
				kept.st.close()
			}
			return err
		}
		setups = append(setups, s.elapsed.Seconds())
		if kept != nil {
			if s.quality != kept.quality {
				rep.fail("set-up answers differ between set-ups of one seed: %+v vs %+v", kept.quality, s.quality)
			}
			kept.st.close()
		}
		kept = s
	}
	defer kept.st.close()
	p, err := measure(w, kept, nil)
	if err != nil {
		return err
	}
	rep.phase(p)
	okCount, within := 0, 0
	for i, ok := range p.ok {
		if ok {
			okCount++
			if p.lat[i] <= w.limit {
				within++
			}
		}
	}
	p99, windows := windowed(p.lat, 0.99)
	rep.line("latency_p99_ms over the whole run: %.6f ms (n=%d)", ms(quantile(p.lat, 0.99)), len(p.lat))
	rep.metric("setup_s", median(setups), "s", len(setups))
	rep.metric("latency_p50_ms", ms(quantile(p.lat, 0.50)), "ms", len(p.lat))
	rep.metric("latency_p99_ms", p99, "ms", windows)
	rep.metric("throughput_rps", float64(okCount)/p.wall.Seconds(), "1/s", okCount)
	rep.metric("slo_attainment", ratio(float64(within), float64(p.attempted)), "ratio", p.attempted)
	rep.metric("calib_ratio", p.quality.calibRatio(), "ratio", okCount)
	rep.metric("machine_ratio", p.quality.machineRatio(), "ratio", okCount)
	st := kept.st
	kept.in, kept.chk, p = nil, nil, nil
	rep.metric("heap_retained_mb", retainedHeapMB(st), "MiB", 1)
	return nil
}

// window is how many consecutive measured requests one p99 covers: the
// fewest that leave ten samples beyond it.
const window = 1000

// windowed splits lat into consecutive windows of window requests (a
// trailing partial window joins the last) and returns the median over
// windows of each window's q-quantile, with the window count. A host
// stall of a few milliseconds moves one window's tail, not the median.
func windowed(lat []time.Duration, q float64) (float64, int) {
	k := max(len(lat)/window, 1)
	vs := make([]float64, k)
	for i := range vs {
		hi := (i + 1) * window
		if i == k-1 {
			hi = len(lat)
		}
		vs[i] = ms(quantile(lat[i*window:hi], q))
	}
	return median(vs), k
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report collects the human-readable lines and the JSON result.
type report struct {
	lines     []string
	metrics   map[string]metricValue
	attempted int
	failed    int
	failures  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// metric records one metric with its unit and sample count.
func (r *report) metric(name string, v float64, unit string, samples int) {
	if r.metrics == nil {
		r.metrics = map[string]metricValue{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.metrics[name] = metricValue{v, unit}
	r.line("%-32s %14.6f %-12s n=%d", name, v, unit, samples)
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// phase adds a measured phase's request counts and failed checks.
func (r *report) phase(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.failures = append(r.failures, p.failures...)
	r.line("requests: sent %d, succeeded %d, failed %d, wall %.3fs", p.attempted, p.attempted-p.failed, p.failed, p.wall.Seconds())
}

func (r *report) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

func (r *report) print(w io.Writer) error {
	if r.attempted < 1 {
		return errors.New("no request was sent")
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", strings.Join(r.lines, "\n"), out)
	return err
}
