package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"calib/api"
	"calib/internal/cache"
	"calib/internal/canon"
	"calib/internal/ise"
)

// transferStream frames payload as the only entry, under key, of a
// binary /v1/cache/entries body.
func transferStream(tb testing.TB, key uint64, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := cache.WriteWireHeader(&buf); err != nil {
		tb.Fatal(err)
	}
	if err := cache.WriteWireEntry(&buf, key, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// unknownJobEntry returns the cached Result of inst's canonical form,
// solved by the server's own ladder, and the same entry with its first
// placement naming job 99, which the instance lacks. Both are encoded
// as transfer payloads.
func unknownJobEntry(tb testing.TB, c *canon.Canonical) (good, bad []byte) {
	tb.Helper()
	res, err := New(Config{}).defaultSolve(context.Background(), c.Instance.Clone(), 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if good, err = encodeResult(res); err != nil {
		tb.Fatal(err)
	}
	broken := *res
	broken.Schedule = res.Schedule.Clone()
	broken.Schedule.Placements[0].Job = 99
	if bad, err = encodeResult(&broken); err != nil {
		tb.Fatal(err)
	}
	return good, bad
}

// FuzzTransferStream posts one fuzzed warm-transfer entry, framed under
// the canonical key of a solved instance so that mutations reach
// decodeResult instead of failing the CRC, and then peeks at the
// instance through /v1/solve. Nothing may panic, and the peek must
// answer 204 (nothing stored), 500 (a stored entry that fails
// validation) or 200 with a schedule that is feasible for the
// instance.
func FuzzTransferStream(f *testing.F) {
	served := testInstance(5)
	c := canon.Canonicalize(served)
	good, bad := unknownJobEntry(f, c)
	f.Add(good)
	f.Add(bad)
	solveBody, err := json.Marshal(api.SolveRequest{Instance: served})
	if err != nil {
		f.Fatal(err)
	}
	refuse := func(context.Context, *ise.Instance, time.Duration, int64) (*Result, error) {
		return nil, errors.New("a peek must not solve")
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		srv := New(Config{Solve: refuse, FlightRecords: -1, CacheTransferOpen: true})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cache/entries",
			bytes.NewReader(transferStream(t, c.Key, payload))))
		if rec.Code != http.StatusOK {
			t.Fatalf("transfer answered %d: %s", rec.Code, rec.Body)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(solveBody))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.HeaderPeek, "1")
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusNoContent, http.StatusInternalServerError:
		case http.StatusOK:
			var resp api.SolveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("decoding the peek answer: %v", err)
			}
			if err := ise.Validate(served, resp.Schedule); err != nil {
				t.Fatalf("peek served an infeasible schedule: %v", err)
			}
		default:
			t.Fatalf("peek answered %d: %s", rec.Code, rec.Body)
		}
	})
}
