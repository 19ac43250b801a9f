package server

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockstep/internal/handler"
	"lockstep/internal/sbist"
)

// fuzzSeedRNG derives a deterministic RNG from the FuzzPredictRequest
// seed corpus bytes, so the "fuzz-derived" unknown-DSR sample is stable
// across runs yet rooted in the same inputs the fuzzer starts from.
func fuzzSeedRNG(t testing.TB) *rand.Rand {
	t.Helper()
	h := fnv.New64a()
	dir := filepath.Join("testdata", "fuzz", "FuzzPredictRequest")
	files, err := os.ReadDir(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("reading fuzz corpus %s: %v (%d files)", dir, err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// TestDenseMatchesTablePath is the dense-lookup acceptance contract:
// for every distinct training-set DSR — i.e. every trained table entry —
// plus 1000 fuzz-derived DSRs outside the training set, the precomputed
// dense slice must render bit-identical prediction bytes to the table
// path (handler front-end flow + struct building + encoding/json), and
// whole responses must be bit-identical to marshaling the equivalent
// predictResponse.
func TestDenseMatchesTablePath(t *testing.T) {
	_, _, table := testFixture(t)
	cfg := sbist.NewConfig(table.Gran, nil, sbist.OnChipTableAccess)
	dense, err := newDenseTable(table)
	if err != nil {
		t.Fatal(err)
	}
	h := handler.New(table, cfg)

	var dsrs []uint64
	for id := 0; id < table.Dict.Len(); id++ {
		dsrs = append(dsrs, table.Dict.Set(id))
	}
	trained := len(dsrs)
	if trained < 10 {
		t.Fatalf("only %d trained sets; fixture too small", trained)
	}
	rng := fuzzSeedRNG(t)
	for len(dsrs) < trained+1000 {
		v := rng.Uint64()
		if _, known := table.Dict.ID(v); !known {
			dsrs = append(dsrs, v)
		}
	}

	// Per-prediction bytes.
	for _, dsr := range dsrs {
		want, err := json.Marshal(tablePathPrediction(h, dsr))
		if err != nil {
			t.Fatal(err)
		}
		got := dense.appendPrediction(nil, dsr)
		if string(got) != string(want) {
			t.Fatalf("DSR %x: dense render\n %s\ntable path\n %s", dsr, got, want)
		}
	}

	// Whole-response bytes, trained and unknown DSRs interleaved.
	batch := append([]uint64{}, dsrs[:64]...)
	batch = append(batch, dsrs[trained:trained+64]...)
	ref := predictResponse{
		Granularity: table.Gran.String(),
		TableSets:   table.Dict.Len(),
		Predictions: make([]predictionJSON, 0, len(batch)),
	}
	for _, dsr := range batch {
		ref.Predictions = append(ref.Predictions, tablePathPrediction(h, dsr))
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dense.appendResponse(nil, batch, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("dense response differs from table path:\n %s\nvs\n %s", got, want)
	}
}

// TestPredictEndpointServesDenseBytes: the endpoint must write exactly
// the dense render — so the equivalence contract above covers the wire
// format too.
func TestPredictEndpointServesDenseBytes(t *testing.T) {
	_, _, table := testFixture(t)
	s := newTestServer(t, nil)

	known := table.Dict.Set(0)
	body := fmt.Sprintf(`{"dsrs":["%x","3fffffffffffffff"]}`, known)
	req := httptest.NewRequest("POST", "/v1/predict", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
	}
	want, err := s.tables.current().dense.appendResponse(nil, []uint64{known, 0x3fffffffffffffff}, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != string(want) {
		t.Fatalf("endpoint bytes differ from dense render:\n %q\nvs\n %q", rec.Body.String(), want)
	}
}
