package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"calib"
	"calib/internal/workload"
)

// servedBodies returns /v1/solve request and answer bodies shaped like
// the served corpus (every workload family at m = 2, T = 10), each in
// encoding/json's compact form and in ised's former indented form.
func servedBodies(tb testing.TB) (reqs, resps [][]byte) {
	tb.Helper()
	indent := func(v any) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			tb.Fatal(err)
		}
		return b.Bytes()
	}
	for fi, fam := range workload.FamilyNames {
		for _, n := range []int{8, 24} {
			rng := rand.New(rand.NewSource(int64(1000 + 100*fi + n)))
			inst, err := workload.Family(rng, fam, workload.FamilyConfig{N: n, M: 2, T: 10})
			if err != nil {
				tb.Fatal(err)
			}
			sol, err := calib.SolveRobust(inst, nil)
			if err != nil {
				tb.Fatal(err)
			}
			req := &SolveRequest{Instance: inst, SolveOptions: SolveOptions{TimeoutMillis: int64(n)}}
			resp := &SolveResponse{
				Schedule:      sol.Schedule,
				Calibrations:  sol.Calibrations,
				MachinesUsed:  sol.MachinesUsed,
				Components:    sol.Components,
				Degraded:      sol.Degraded,
				Exact:         sol.Exact,
				Cached:        fi%2 == 0,
				Key:           "00c0ffee12345678",
				ElapsedMillis: float64(fi*n) / 1000,
				RequestID:     strings.Repeat("r", n%7),
			}
			for _, v := range []any{req, resp} {
				compact, err := json.Marshal(v)
				if err != nil {
					tb.Fatal(err)
				}
				if v == any(req) {
					reqs = append(reqs, compact, indent(v))
				} else {
					resps = append(resps, compact, indent(v))
				}
			}
		}
	}
	return reqs, resps
}

// nested returns depth levels of array nesting around null.
func nested(depth int) string {
	return strings.Repeat("[", depth) + "null" + strings.Repeat("]", depth)
}

// Runes encoding/json folds onto ASCII letters, and the two line
// separators json.Marshal escapes, spelled as their UTF-8 bytes.
const (
	longS  = "\xc5\xbf"     // U+017F folds to S
	kelvin = "\xe2\x84\xaa" // U+212A folds to K
	lsep   = "\xe2\x80\xa8" // U+2028
	psep   = "\xe2\x80\xa9" // U+2029
)

const okInstance = `{"t":10,"m":1,"jobs":[{"id":0,"release":0,"deadline":40,"processing":5},{"id":1,"release":30,"deadline":70,"processing":8}]}`

// requestSeeds are hand-written /v1/solve bodies at the edges of
// encoding/json's contract.
var requestSeeds = []string{
	`{"instance":` + okInstance + `}`,
	`{"instance":{"T":10,"M":1,"JOBS":[{"ID":0,"Release":0,"deadLine":40,"processing":5}]}}`,
	`{"in` + longS + `tance":{"t":10,"m":1,"job` + longS + `":[{"id":0,"relea` + longS + `e":0,"deadline":40,"proce` + longS + longS + `ing":5}]}}`,
	`{"instance":{"t":10,"m":1}}`,
	`{"x":{"y":[1,{"z":null},"s",true,false,-0.5e+3]},"instance":{"extra":[[[]],{}],"t":10,"m":1,"jobs":[{"id":0,"q":{"r":[]},"release":0,"deadline":40,"processing":5}]},"more":"` + "\xc3\xa9" + `"}`,
	`null`, `{}`, `{"instance":null}`, `{"instance":{}}`, `{"instance":{"t":null,"m":null,"jobs":null}}`,
	`{"instance":{"t":10,"m":1,"jobs":[null,{"id":null,"release":null,"deadline":null,"processing":null}]},"timeout_ms":null,"budget":null}`,
	`{"instance":{"t":10,"m":1,"jobs":[]}}`,
	`{"instance":{"t":10,"m":1,"jobs":[{"id":0,"release":0,"deadline":40,"processing":5}]},"instance":{"m":2}}`,
	`{"instance":{"jobs":[{"id":7,"release":1},{"id":8,"release":2},{"id":9}],"jobs":[{"deadline":5}],"jobs":[{},{},{}]}}`,
	`{"instance":{"jobs":[{"id":7},{"id":8}],"jobs":[],"jobs":[{},{}]}}`,
	`{"instance":{"jobs":[{"id":7},{"id":8}]},"instance":null,"instance":{"jobs":[{}]}}`,
	`{"instance":{"t":1.0}}`, `{"instance":{"t":1e2}}`, `{"instance":{"t":-0}}`,
	`{"instance":{"t":9223372036854775807,"m":-9223372036854775808}}`,
	`{"instance":{"t":9223372036854775808}}`, `{"instance":{"t":-9223372036854775809}}`,
	`{"instance":{"t":123456789012345678901234567890}}`,
	`{"instance":{"t":"10"}}`, `{"instance":{"t":true}}`, `{"instance":5}`, `{"instance":[]}`,
	`{"instance":{"jobs":{}}}`, `{"instance":{"jobs":[1]}}`, `{"timeout_ms":"5"}`, `{"budget":{}}`,
	`{"x":` + nested(9999) + `}`,
	`{"x":` + nested(10000) + `}`,
	nested(10001),
	`{"instance":` + okInstance + "}\x00",
	`{"instance":` + okInstance + `} x`,
	`{"instance":` + okInstance + "} \n\t\r",
	"\xef\xbb\xbf{}",
	`{"instance":` + okInstance + `,"junk":"` + "\xff\xfe bad utf8 \\ud800 lone \\udc00 \xf0\x9f\x98\x80 pair \\uD800\\uD800 \\uD83D\\uDE00 \xed\xa0\x80" + `"}`,
	"{\"\xff\":1,\"\\ud800\":2,\"\\u0074\":3}",
	`{"note":"<script>&amp;` + lsep + psep + `"}`,
	``, ` `, `{`, `}`, `[`, `{"instance"}`, `{"instance":}`, `{,}`, `{"a":1,}`, `[1,]`, `{"a" 1}`,
	`{"a":01}`, `{"a":-}`, `{"a":1.}`, `{"a":.5}`, `{"a":1e}`, `{"a":+1}`, `{"a":nul}`, `{"a":tru}`,
	`{"a":"\x}`, `{"a":"\u12G4"}`, "{\"a\":\"\x01\"}", `{"a":"unterminated}`, `{'a':1}`,
	`{"instance":{"t":10}}garbage`,
}

// responseSeeds are hand-written answer bodies at the edges of the
// contract of json.Decoder.Decode.
var responseSeeds = []string{
	`{"schedule":null,"calibrations":1,"machines_used":1,"lower_bound":1,"components":1,"degraded":false,"exact":true,"cached":false,"key":"ab","elapsed_ms":0.5,"request_id":"x"}`,
	`{"` + longS + `chedule":{"Machines":1,"SPEED":1,"calibrations":[{"machine":0,"start":0}],"placements":[{"job":0,"machine":0,"start":1}]},"` + kelvin + `ey":"x"}`,
	`{"` + kelvin + `ey":"kelvin","key":"k","KEY":"K"}`,
	`{"schedule":{"calibrations":[{"machine":1},{"machine":2}],"calibrations":[{"start":3}],"calibrations":[{},{}]}}`,
	`{"schedule":{"placements":null},"schedule":{"speed":2}}`,
	`{"elapsed_ms":1e400}`, `{"elapsed_ms":1e-400}`, `{"elapsed_ms":-0}`, `{"elapsed_ms":123456789e300}`,
	`{"elapsed_ms":"1"}`, `{"cached":1}`, `{"cached":"true"}`, `{"key":5}`, `{"request_id":null}`,
	`{"calibrations":1.5}`, `{"components":99999999999999999999}`,
	`null`, `nullx`, `null garbage`, `{} {}`, "{}\x00", `{}]`, `5`, `"s"`, `[]`, `true`, `nul`, ``, `  `,
	`{"request_id":"<>&` + lsep + psep + ` \ud800 ` + "\xff" + `"}`,
	`{"x":` + nested(9999) + `}`, `{"x":` + nested(10000) + `}`,
}

var entriesSeeds = []string{
	`{"entries":[]}`, `{"entries":null}`, `{}`, `null`, `{"entries":[null,{}]}`,
	`{"entries":[{"request":null,"response":null}]}`,
	`{"ENTRIES":[{"Request":{"instance":` + okInstance + `},"RESPONSE":{"cached":true}}]}`,
	`{"entries":[{"request":{"instance":{"jobs":[{"id":1},{"id":2}]}}},{"request":{"instance":{"jobs":[{"id":3}]}}}],"entries":[{"response":{"key":"a"}}],"entries":[{},{}]}`,
	`{"entries":[{"request":{"instance":{"t":1.5}}}]}`,
	`{"entries":[{"response":{"schedule":5}}]}`,
	`{"entries":[{"request":{"instance":{"t":1}}}]} x`,
	`{"entries":{}}`,
}

// checkRequest decodes data with DecodeSolveRequest and json.Unmarshal
// and fails unless both accept or both reject, the accepted values are
// equal, and AppendSolveRequest re-encodes them as json.Marshal does.
// It also decodes into a reused request whose jobs buffer holds
// leftovers, which must not leak into the result.
func checkRequest(t *testing.T, data []byte) {
	t.Helper()
	var want, got SolveRequest
	werr := json.Unmarshal(data, &want)
	gerr := DecodeSolveRequest(data, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: encoding/json error %v, codec error %v", data, werr, gerr)
	}
	dirty := make([]calib.Job, 8)
	for i := range dirty {
		dirty[i] = calib.Job{ID: 99, Release: -1, Deadline: -2, Processing: -3}
	}
	reused := SolveRequest{Instance: &calib.Instance{Jobs: dirty[:0]}}
	fresh := SolveRequest{Instance: &calib.Instance{Jobs: []calib.Job{}}}
	rerr := DecodeSolveRequest(data, &reused)
	ferr := json.Unmarshal(data, &fresh)
	if (rerr == nil) != (ferr == nil) {
		t.Fatalf("%q: into a reused request: encoding/json error %v, codec error %v", data, ferr, rerr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(&got, &want) {
		t.Fatalf("%q: decoded\n%+v\nencoding/json\n%+v", data, got, want)
	}
	if !reflect.DeepEqual(&reused, &fresh) {
		t.Fatalf("%q: reused buffer decoded\n%+v\nencoding/json\n%+v", data, reused.Instance, fresh.Instance)
	}
	wb, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if gb := AppendSolveRequest(nil, &got); !bytes.Equal(gb, wb) {
		t.Fatalf("%q: encoded\n%s\njson.Marshal\n%s", data, gb, wb)
	}
}

// checkResponse is checkRequest for answers, whose oracle is
// json.Decoder.Decode.
func checkResponse(t *testing.T, data []byte) {
	t.Helper()
	var want, got SolveResponse
	werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	gerr := DecodeSolveResponse(data, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: encoding/json error %v, codec error %v", data, werr, gerr)
	}
	if werr == nil {
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("%q: decoded\n%+v\nencoding/json\n%+v", data, got, want)
		}
		checkAppendResponse(t, &got)
	}
	// The encoder on its own: arbitrary bytes as strings, and a float
	// taken from the input's bits.
	var bits [8]byte
	copy(bits[:], data)
	checkAppendResponse(t, &SolveResponse{
		Key:           string(data),
		RequestID:     string(data),
		ElapsedMillis: math.Float64frombits(binary.LittleEndian.Uint64(bits[:])),
	})
}

func checkAppendResponse(t *testing.T, r *SolveResponse) {
	t.Helper()
	wb, werr := json.Marshal(r)
	gb, gerr := AppendSolveResponse(nil, r)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%+v: json.Marshal error %v, codec error %v", r, werr, gerr)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("encoded\n%s\njson.Marshal\n%s", gb, wb)
	}
}

func checkEntries(t *testing.T, data []byte) {
	t.Helper()
	var want, got CacheEntriesRequest
	werr := json.Unmarshal(data, &want)
	gerr := DecodeCacheEntriesRequest(data, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: encoding/json error %v, codec error %v", data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(&got, &want) {
		t.Fatalf("%q: decoded\n%+v\nencoding/json\n%+v", data, got, want)
	}
}

// FuzzDecodeSolveRequest: DecodeSolveRequest ≡ json.Unmarshal into a
// fresh api.SolveRequest, and AppendSolveRequest ≡ json.Marshal.
func FuzzDecodeSolveRequest(f *testing.F) {
	reqs, _ := servedBodies(f)
	for _, b := range reqs {
		f.Add(b)
	}
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkRequest)
}

// FuzzDecodeSolveResponse: DecodeSolveResponse ≡ json.Decoder.Decode
// into a fresh api.SolveResponse, and AppendSolveResponse ≡
// json.Marshal.
func FuzzDecodeSolveResponse(f *testing.F) {
	_, resps := servedBodies(f)
	for _, b := range resps {
		f.Add(b)
	}
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkResponse)
}

// FuzzDecodeCacheEntriesRequest: DecodeCacheEntriesRequest ≡
// json.Unmarshal into a fresh api.CacheEntriesRequest.
func FuzzDecodeCacheEntriesRequest(f *testing.F) {
	reqs, resps := servedBodies(f)
	for i := range reqs {
		f.Add([]byte(`{"entries":[{"request":` + string(reqs[i]) + `,"response":` + string(resps[i]) + `}]}`))
	}
	for _, s := range entriesSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkEntries)
}

// TestWireSeedsDecideAsExpected pins what the hand-written seeds are
// for, so the differential checks cannot pass by both sides rejecting
// everything.
func TestWireSeedsDecideAsExpected(t *testing.T) {
	accept := func(decode func([]byte) error, s string, want bool) {
		t.Helper()
		if got := decode([]byte(s)) == nil; got != want {
			t.Errorf("%.60q: accepted %v, want %v", s, got, want)
		}
	}
	req := func(b []byte) error { return DecodeSolveRequest(b, new(SolveRequest)) }
	resp := func(b []byte) error { return DecodeSolveResponse(b, new(SolveResponse)) }
	for _, s := range []string{
		requestSeeds[1], requestSeeds[2], requestSeeds[4], `null`, `{"x":` + nested(9999) + `}`,
		`{"instance":{"t":-0}}`, `{"instance":` + okInstance + "} \n\t\r",
	} {
		accept(req, s, true)
	}
	for _, s := range []string{
		`{"instance":{"t":1.0}}`, `{"instance":{"t":1e2}}`, `{"instance":{"t":9223372036854775808}}`,
		`{"x":` + nested(10000) + `}`, nested(10001), `{"instance":` + okInstance + "}\x00", ``,
	} {
		accept(req, s, false)
	}
	for _, s := range []string{`nullx`, "{}\x00", `{} {}`, `{"` + kelvin + `ey":"kelvin"}`} {
		accept(resp, s, true)
	}
	for _, s := range []string{`5`, ``, `{"elapsed_ms":1e400}`, `{"x":` + nested(10000) + `}`} {
		accept(resp, s, false)
	}

	var r SolveRequest
	if err := DecodeSolveRequest([]byte(requestSeeds[2]), &r); err != nil || r.Instance == nil || len(r.Instance.Jobs) != 1 || r.Instance.Jobs[0].Processing != 5 {
		t.Fatalf("folded keys: %+v, %v", r.Instance, err)
	}
	var a SolveResponse
	if err := DecodeSolveResponse([]byte(`{"`+kelvin+`ey":"kelvin"}`), &a); err != nil || a.Key != "kelvin" {
		t.Fatalf("K-sign key: %q, %v", a.Key, err)
	}
}

// TestFieldTablesMatchTags keeps the codec's member-name tables in
// step with the wire structs' json tags.
func TestFieldTablesMatchTags(t *testing.T) {
	var names func(reflect.Type) []string
	names = func(t reflect.Type) []string {
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if f.Anonymous && tag == "" {
				out = append(out, names(f.Type)...)
				continue
			}
			out = append(out, strings.Split(tag, ",")[0])
		}
		return out
	}
	for _, c := range []struct {
		v      any
		fields []string
	}{
		{SolveRequest{}, requestFields},
		{calib.Instance{}, instanceFields},
		{calib.Job{}, jobFields},
		{SolveResponse{}, responseFields},
		{calib.Schedule{}, scheduleFields},
		{calib.Calibration{}, calibrationFields},
		{calib.Placement{}, placementFields},
		{CacheEntriesRequest{}, entriesFields},
		{CacheEntry{}, entryFields},
	} {
		if got := names(reflect.TypeOf(c.v)); !reflect.DeepEqual(got, c.fields) {
			t.Errorf("%T: json tags %q, codec table %q", c.v, got, c.fields)
		}
	}
}

// TestAppendEdgeValues covers encoder inputs no decoded value reaches:
// nil values, NaN and infinities, and the float format's cutoffs.
func TestAppendEdgeValues(t *testing.T) {
	if b := AppendSolveRequest(nil, nil); string(b) != "null" {
		t.Fatalf("nil request: %s", b)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e21, 9.9e20, -1e-7, 1e300, 5e-324,
		math.MaxFloat64, 0.1, 1234.5678, math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAppendResponse(t, &SolveResponse{ElapsedMillis: f})
	}
	checkAppendResponse(t, nil)
	checkAppendResponse(t, &SolveResponse{Schedule: &calib.Schedule{Calibrations: []calib.Calibration{}}})
	checkAppendResponse(t, &SolveResponse{Key: "\b\f\n\r\t\"\\\x00\x1f\x7f<>&" + lsep + psep + "\xff\xc3"})
}
