package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"calib/api"
	"calib/internal/canon"
	"calib/internal/workload"
)

// serve sends body to srv's /v1/solve through ServeHTTP.
func serve(srv *Server, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// TestSolveAnswersAreMarshalBytes: every /v1/solve answer, fresh and
// cached, over instances shaped like the served corpus (every workload
// family × n 8/16/24/40 at m = 2, T = 10), is exactly json.Marshal of
// itself plus the newline Encoder.Encode writes — which is the
// indented body ised used to send, with its indentation removed.
func TestSolveAnswersAreMarshalBytes(t *testing.T) {
	srv := New(Config{})
	for fi, fam := range workload.FamilyNames {
		for _, n := range []int{8, 16, 24, 40} {
			rng := rand.New(rand.NewSource(int64(1000 + 100*fi + n)))
			inst, err := workload.Family(rng, fam, workload.FamilyConfig{N: n, M: 2, T: 10})
			if err != nil {
				t.Fatal(err)
			}
			inst = canon.Canonicalize(inst).Instance
			body, err := json.Marshal(&api.SolveRequest{Instance: inst})
			if err != nil {
				t.Fatal(err)
			}
			for _, cached := range []bool{false, true} {
				w := serve(srv, body)
				if w.Code != http.StatusOK {
					t.Fatalf("%s n=%d: status %d: %s", fam, n, w.Code, w.Body)
				}
				got := w.Body.Bytes()
				var resp api.SolveResponse
				if err := json.Unmarshal(got, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Cached != cached || resp.Schedule == nil {
					t.Fatalf("%s n=%d: cached=%v, schedule %v", fam, n, resp.Cached, resp.Schedule != nil)
				}
				want, err := json.Marshal(&resp)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, '\n')
				if !bytes.Equal(got, want) {
					t.Fatalf("%s n=%d: answer\n%s\njson.Marshal\n%s", fam, n, got, want)
				}
				var indented, compact bytes.Buffer
				enc := json.NewEncoder(&indented)
				enc.SetIndent("", "  ")
				if err := enc.Encode(&resp); err != nil {
					t.Fatal(err)
				}
				if err := json.Compact(&compact, indented.Bytes()); err != nil {
					t.Fatal(err)
				}
				if compact.WriteByte('\n'); !bytes.Equal(got, compact.Bytes()) {
					t.Fatalf("%s n=%d: answer is not the indented body compacted", fam, n)
				}
			}
		}
	}
}

// TestSolveRequestStatusTable pins the HTTP status of request bodies
// at the edges of encoding/json's contract: the statuses are the ones
// ised answered when it decoded with json.Unmarshal.
func TestSolveRequestStatusTable(t *testing.T) {
	const (
		job0 = `{"id":0,"release":0,"deadline":40,"processing":5}`
		job1 = `{"id":1,"release":30,"deadline":70,"processing":8}`
		inst = `{"t":10,"m":1,"jobs":[` + job0 + `,` + job1 + `]}`
	)
	indented := "{\n  \"instance\": {\n    \"t\": 10,\n    \"m\": 1,\n    \"jobs\": [\n      " + job0 + ",\n      " + job1 + "\n    ]\n  }\n}\n"
	nest := func(depth int) string { return strings.Repeat("[", depth) + strings.Repeat("]", depth) }
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"compact", `{"instance":` + inst + `}`, 200},
		{"indented", indented, 200},
		{"upper-case keys", `{"instance":{"T":10,"M":1,"jobs":[` + job0 + `]}}`, 200},
		{"long-s key", `{"in` + "\xc5\xbf" + `tance":` + inst + `}`, 200},
		{"unknown nested members", `{"x":{"y":[1,{"z":null},"s"]},"instance":{"extra":[[{}]],"t":10,"m":1,"jobs":[{"id":0,"q":{},"release":0,"deadline":40,"processing":5}]}}`, 200},
		{"top-level null", `null`, 400},
		{"empty object", `{}`, 400},
		{"instance null", `{"instance":null}`, 400},
		{"instance empty", `{"instance":{}}`, 400},
		{"jobs null", `{"instance":{"t":10,"m":1,"jobs":null}}`, 200},
		{"job null", `{"instance":{"t":10,"m":1,"jobs":[null]}}`, 400},
		{"scalar nulls", `{"instance":{"t":null,"m":1,"jobs":[` + job0 + `]},"timeout_ms":null,"budget":null}`, 400},
		{"option nulls", `{"instance":` + inst + `,"timeout_ms":null,"budget":null}`, 200},
		{"duplicate instance merges", `{"instance":` + inst + `,"instance":{"m":2}}`, 200},
		{"duplicate jobs keep stale elements", `{"instance":{"t":10,"m":1,"jobs":[` + job0 + `,` + job1 + `],"jobs":[{"id":0}],"jobs":[{},{}]}}`, 200},
		{"float integer", `{"instance":{"t":10.0,"m":1,"jobs":[` + job0 + `]}}`, 400},
		{"exponent integer", `{"instance":{"t":1e1,"m":1,"jobs":[` + job0 + `]}}`, 400},
		{"int64 overflow", `{"instance":` + inst + `,"budget":9223372036854775808}`, 400},
		{"string integer", `{"instance":` + inst + `,"timeout_ms":"5"}`, 400},
		{"nesting at the limit", `{"x":` + nest(9999) + `,"instance":` + inst + `}`, 200},
		{"nesting past the limit", `{"x":` + nest(10000) + `,"instance":` + inst + `}`, 400},
		{"NUL after value", `{"instance":` + inst + "}\x00", 400},
		{"garbage after value", `{"instance":` + inst + `} x`, 400},
		{"space after value", `{"instance":` + inst + "} \r\n\t", 200},
		{"invalid UTF-8 and lone surrogates", `{"junk":"` + "\xff\xfe" + ` \ud800 \udc00","instance":` + inst + `}`, 200},
		{"HTML and line separators", `{"note":"<>&` + "\xe2\x80\xa8\xe2\x80\xa9" + `","instance":` + inst + `}`, 200},
		{"empty body", ``, 400},
		{"truncated", `{"instance":` + inst, 400},
		{"byte order mark", "\xef\xbb\xbf" + `{"instance":` + inst + `}`, 400},
	} {
		srv := New(Config{})
		if w := serve(srv, []byte(c.body)); w.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.name, w.Code, c.status, w.Body)
		}
	}
}
