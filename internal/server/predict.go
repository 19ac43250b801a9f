package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
)

// maxPredictBody bounds a predict request body; a 1024-DSR batch of hex
// strings is well under this.
const maxPredictBody = 1 << 20

// predictionJSON is one prediction in the response: the DSR→PTAR→table
// lookup result the on-device error handler would act on.
type predictionJSON struct {
	DSR   string   `json:"dsr"`   // hex, as in the dataset CSV
	PTAR  int      `json:"ptar"`  // prediction table address the DSR mapped to
	Known bool     `json:"known"` // false: unobserved set, default entry
	Type  string   `json:"type"`  // "soft" or "hard"
	Units []string `json:"units"` // predicted unit test order, names
	Order []int    `json:"order"` // same order, unit IDs at the table granularity
}

type predictResponse struct {
	Granularity string           `json:"granularity"`
	TableSets   int              `json:"table_sets"`
	Predictions []predictionJSON `json:"predictions"`
}

// handlePredict serves POST /v1/predict: the online half of the paper's
// flow. Each DSR is pushed through the same front-end the error handler
// uses — latch, PTAR address mapping, table entry fetch — and the
// predicted unit order and soft/hard verdict come back. The whole
// request is served out of pooled scratch against the precomputed dense
// table: the only per-request heap work left is what stdlib HTTP
// plumbing does around this handler (TestPredictZeroAlloc holds the
// handler-owned part at zero and the full round trip to a fixed
// budget).
//
// The serving bundle is loaded from the table manager's atomic pointer
// exactly once, here, and every byte of the response — including the
// ETag, which carries the bundle's version digest — is rendered from
// that one bundle. A hot swap between two requests changes which bundle
// the next Load returns; it can never change (or mix) the one a request
// in flight already holds. The swap-atomicity race test pins the
// contract: under concurrent swaps, each response body must be
// byte-identical to the render of exactly the table its ETag names.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) error {
	b, err := s.requireTable()
	if err != nil {
		return err
	}
	// A client that states which lockstep mode it is deployed under is
	// refused when the live table was trained under a different one: a
	// slip:N table encodes slip-shifted detection latencies, a tmr table
	// encodes post-recovery outcomes, and serving either to a dcls
	// deployment (or vice versa) would be a silent model/plant mismatch.
	// The check stays off the zero-alloc hot path: Header.Get does not
	// allocate and mode.String() runs only when the header is present.
	if want := r.Header.Get("X-Lockstep-Mode"); want != "" && want != b.mode.String() {
		return &apiError{Status: http.StatusConflict, Code: "mode_mismatch",
			Message: fmt.Sprintf("live table %s was trained under mode %s, request requires %s",
				b.version, b.mode, want), Field: "mode"}
	}
	sc := getPredictScratch()
	defer putPredictScratch(sc)

	body, err := readBodyInto(r.Body, sc.body, maxPredictBody)
	sc.body = body
	if err == errBodyTooLarge {
		return errf(http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds %d bytes", maxPredictBody)
	}
	if err != nil {
		return bodyError(err)
	}

	out, n, err := s.predictBytes(r.Context(), b, sc, body)
	if err != nil {
		return err
	}
	s.predictions.Add(int64(n))
	s.predictBatch.Observe(int64(n))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", b.etag)
	w.Write(out)
	return nil
}

// predictBytes is the serving hot path minus HTTP plumbing: decode the
// request body and render the response bytes out of sc's reusable
// buffers against the caller's pinned bundle, returning the rendered
// response and the batch size. It is the unit BenchmarkPredictE2E and
// PredictAllocsPerRun measure, and it performs zero heap allocations in
// steady state — the bundle indirection is a pointer dereference, not a
// copy.
func (s *Server) predictBytes(ctx context.Context, b *tableBundle, sc *predictScratch, body []byte) ([]byte, int, error) {
	dsrs, err := parsePredictInto(body, sc.dsrs, s.opt.MaxBatch)
	if dsrs != nil {
		sc.dsrs = dsrs[:0]
	}
	if err != nil {
		return nil, 0, err
	}
	out, err := b.dense.appendResponse(sc.out[:0], dsrs, ctx)
	sc.out = out[:0]
	if err != nil {
		return nil, 0, err
	}
	return out, len(dsrs), nil
}

// PredictAllocsPerRun measures the steady-state heap allocations one
// predict request costs on the serving hot path (request decode + dense
// lookup + response render — everything the server adds beyond stdlib
// HTTP plumbing) for the given request body. The benchmark (perfbench)
// reports it as server.allocs_per_req, and TestPredictZeroAlloc holds it
// at zero. The measurement mirrors testing.AllocsPerRun: warm up, pin to
// one P, and average the mallocs delta over many runs.
func (s *Server) PredictAllocsPerRun(body []byte) (float64, error) {
	b := s.tables.current()
	if b == nil {
		return 0, fmt.Errorf("no prediction table loaded")
	}
	sc := &predictScratch{}
	ctx := context.Background()
	if _, _, err := s.predictBytes(ctx, b, sc, body); err != nil {
		return 0, fmt.Errorf("probe body rejected: %w", err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s.predictBytes(ctx, b, sc, body)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, nil
}
