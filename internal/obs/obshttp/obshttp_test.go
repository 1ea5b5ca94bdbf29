package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"calib/internal/obs"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Declare(reg)
	reg.Counter(obs.MLPPivots).Add(42)
	reg.CounterWith(obs.MFaultInjected, "point", "solve_panic").Inc()

	addr, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	prom, ctype := get(t, base+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE lp_pivots_total counter",
		"lp_pivots_total 42",
		`fault_injected_total{point="solve_panic"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}

	vars, ctype := get(t, base+"/debug/vars")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/vars content type = %q", ctype)
	}
	var dump map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &dump); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, vars)
	}
	var solver map[string]any
	if err := json.Unmarshal(dump["calib"], &solver); err != nil {
		t.Fatalf("calib key is not a JSON object: %v", err)
	}
	if v, _ := solver["lp_pivots_total"].(float64); v != 42 {
		t.Errorf("calib.lp_pivots_total = %v, want 42", solver["lp_pivots_total"])
	}

	if body, _ := get(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:99999", obs.NewRegistry()); err == nil {
		t.Error("bad listen address accepted")
	}
}
