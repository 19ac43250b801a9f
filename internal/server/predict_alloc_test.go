package server

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"
)

// predictRoundTripAllocBudget bounds the heap allocations of one full
// single-DSR predict round trip through ServeHTTP — everything the
// server does NOT own: the ServeMux route match, the per-request
// context.WithTimeout, the response recorder, header map writes, the
// labeled request counter. The server-owned part (decode, lookup,
// render) is held at exactly zero below; this budget exists so plumbing
// regressions (a stray per-request buffer, an unhoisted metric) fail CI
// too.
const predictRoundTripAllocBudget = 60

// replayBody is a resettable request body, so the round-trip measurement
// reuses one request object.
type replayBody struct {
	data []byte
	off  int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *replayBody) Close() error { return nil }

// TestPredictZeroAlloc is the allocation regression guard for the
// serving hot path, mirroring TestInjectReplayZeroAlloc on the campaign
// side: steady-state predictBytes — request decode, dense DSR→prediction
// lookup, response render — must perform zero heap allocations for
// single-DSR and batched requests over both trained and unobserved DSRs,
// and the full httptest round trip must stay within the fixed stdlib
// plumbing budget. (Skipped under -race, whose instrumentation
// allocates.)
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	_, _, table := testFixture(t)
	s := newTestServer(t, func(o *Options) { o.DataDir = "" })
	ctx := context.Background()

	bodies := map[string][]byte{
		"single-known":   []byte(fmt.Sprintf(`{"dsr":"%x"}`, table.Dict.Set(0))),
		"single-unknown": []byte(`{"dsr":"3fffffffffffffff"}`),
		"single-numeric": []byte(`{"dsr":42}`),
		"batch128":       batchBody(t, 128),
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			sc := &predictScratch{}
			if _, _, err := s.predictBytes(ctx, s.tables.current(), sc, body); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(200, func() {
				if _, _, err := s.predictBytes(ctx, s.tables.current(), sc, body); err != nil {
					panic(err)
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state predictBytes allocates %.2f times per request, want 0", avg)
			}
		})
	}

	// The exported probe the benchmark reports as server.allocs_per_req
	// must agree with the strict guard.
	if allocs, err := s.PredictAllocsPerRun(bodies["single-known"]); err != nil || allocs != 0 {
		t.Fatalf("PredictAllocsPerRun = %v, %v; want 0, nil", allocs, err)
	}

	t.Run("round-trip", func(t *testing.T) {
		rb := &replayBody{data: bodies["single-known"]}
		req := httptest.NewRequest("POST", "/v1/predict", nil)
		req.Body = rb
		warm := func() {
			rb.off = 0
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != 200 {
				panic(fmt.Sprintf("round trip answered %d: %s", rec.Code, rec.Body.String()))
			}
		}
		warm()
		avg := testing.AllocsPerRun(200, warm)
		if avg > predictRoundTripAllocBudget {
			t.Fatalf("full predict round trip allocates %.1f times per request, budget %d",
				avg, predictRoundTripAllocBudget)
		}
		t.Logf("round trip: %.1f allocs/req (budget %d)", avg, predictRoundTripAllocBudget)
	})
}
