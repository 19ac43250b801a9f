package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lockstep/internal/core"
	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
)

// FuzzPredictRequest drives arbitrary bodies through the full predict
// endpoint: whatever the bytes, the server must answer with a well-formed
// status — 200 for a valid request, a structured 4xx otherwise — and
// never panic. The parse layer (parsePredictRequest) is exercised
// in-handler so the content-length and response paths fuzz too.
func FuzzPredictRequest(f *testing.F) {
	f.Add([]byte(`{"dsr":"1a2b"}`))
	f.Add([]byte(`{"dsr":"0xdeadbeef"}`))
	f.Add([]byte(`{"dsr":42}`))
	f.Add([]byte(`{"dsrs":["0","ffffffffffffffff",7]}`))
	f.Add([]byte(`{"dsr":"1","dsrs":["2"]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"dsr":"zz"}`))
	f.Add([]byte(`{"dsr":-1}`))
	f.Add([]byte(`{"dsr":1e300}`))
	f.Add([]byte(`{"dsrs":[]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"dsr":"1"} trailing`))

	_, _, table := fixtureData()
	s, err := New(Options{Table: table, MaxBatch: 64})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/predict", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("predict answered %d for %q", rec.Code, body)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
			t.Fatalf("non-JSON response (%q) for %q", ct, body)
		}
	})
}

// FuzzTablesRequest fuzzes the server-side-training request decoder in
// isolation — parseTablesRequest validates without reading a dataset or
// training, so the fuzzer never runs the pipeline. Any input must either
// resolve to a well-formed training spec (exactly one dataset source,
// a real granularity, a usable split fraction) or produce a structured
// 4xx *apiError; panics and non-apiError failures are bugs.
func FuzzTablesRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"dataset_csv":"kernel,cycle"}`))
	f.Add([]byte(`{"campaign":"0011223344556677"}`))
	f.Add([]byte(`{"campaign":"a","dataset_csv":"b"}`))
	f.Add([]byte(`{"dataset_csv":"x","granularity":13,"topk":3,"train_frac":0.8,"seed":5}`))
	f.Add([]byte(`{"dataset_csv":"x","granularity":9}`))
	f.Add([]byte(`{"dataset_csv":"x","topk":-1}`))
	f.Add([]byte(`{"dataset_csv":"x","train_frac":1.5}`))
	f.Add([]byte(`{"dataset_csv":"x","train_frac":-0.5}`))
	f.Add([]byte(`{"campaign":"a","activate":false}`))
	f.Add([]byte(`{"campaign":"a","seed":-9223372036854775808}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"dataset_csv":"x"} trailing`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req, spec, err := parseTablesRequest(body)
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) {
				t.Fatalf("non-structured error %T (%v) for %q", err, err, body)
			}
			if ae.Status < 400 || ae.Status > 499 {
				t.Fatalf("error status %d for %q, want 4xx", ae.Status, body)
			}
			return
		}
		if (req.Campaign == "") == (req.DatasetCSV == "") {
			t.Fatalf("accepted request without exactly one dataset source: %q", body)
		}
		if spec.gran != core.Coarse7 && spec.gran != core.Fine13 {
			t.Fatalf("accepted granularity %v for %q", spec.gran, body)
		}
		if spec.topK < 0 {
			t.Fatalf("accepted negative topk for %q", body)
		}
		if !(spec.frac > 0 && spec.frac <= 1) {
			t.Fatalf("accepted train_frac %v for %q", spec.frac, body)
		}
	})
}

// FuzzCampaignRequest fuzzes the campaign submission decoder in
// isolation — parseCampaignRequest validates without planning or running
// a campaign, so the fuzzer never launches real fault injections. Any
// input must either decode to a config with a computable fingerprint and
// derivable job ID, or produce a structured *apiError; panics and
// non-apiError failures are bugs.
func FuzzCampaignRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":24,"seed":9}`))
	f.Add([]byte(`{"kernels":["nosuch"]}`))
	f.Add([]byte(`{"kinds":["soft","stuck-at-0","stuck-at-1"]}`))
	f.Add([]byte(`{"kinds":["gamma-ray"]}`))
	f.Add([]byte(`{"run_cycles":-1}`))
	f.Add([]byte(`{"injections_per_flop_kind":9000000000000000000}`))
	f.Add([]byte(`{"workers":99999,"checkpoint_every":1}`))
	f.Add([]byte(`{"seed":-9223372036854775808}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"kernels":[""]}`))
	f.Add([]byte(`{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":24,"seed":9,"mode":"slip:16"}`))
	f.Add([]byte(`{"mode":"tmr"}`))
	f.Add([]byte(`{"mode":"slip:-3"}`))
	f.Add([]byte(`{"mode":"slip:007"}`))
	f.Add([]byte(`{"run_cycles":100,"mode":"slip:100"}`))
	f.Add([]byte(`{"mode":"bogus"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		_, cfg, err := parseCampaignRequest(body, 4)
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) {
				t.Fatalf("non-structured error %T (%v) for %q", err, err, body)
			}
			if ae.Status < 400 || ae.Status > 499 {
				t.Fatalf("error status %d for %q, want 4xx", ae.Status, body)
			}
			return
		}
		// Accepted configs must be plannable: fingerprint computable,
		// workers clamped, job ID derivable.
		if _, ferr := cfg.Fingerprint(); ferr != nil {
			t.Fatalf("accepted config fails fingerprint for %q: %v", body, ferr)
		}
		if cfg.Workers < 1 || cfg.Workers > 4 {
			t.Fatalf("accepted config has workers %d outside [1,4] for %q", cfg.Workers, body)
		}
		id, iderr := jobID(cfg)
		if iderr != nil || len(id) != 16 {
			t.Fatalf("job id %q (err %v) for %q", id, iderr, body)
		}
	})
}

// FuzzDistributedRequest drives arbitrary bytes as lease and span bodies
// through the endpoints of a live coordinator, the way
// FuzzPredictRequest drives predict: whatever the bytes, the answer is a
// 200 or a 4xx carrying the JSON error envelope, never a panic or a 5xx
// (which a worker would retry). Decoding and Coordinator.Acquire/Commit
// validation both run on every input.
func FuzzDistributedRequest(f *testing.F) {
	cfg := trainingCampaign()
	co, err := inject.NewCoordinator(cfg, inject.DistConfig{LeaseSize: 8})
	if err != nil {
		f.Fatal(err)
	}
	d := NewDistributor(co)
	base := "/v1/campaigns/" + co.Digest()
	digest := co.Digest()

	// Valid bodies of both kinds: a lease request, and a submission over
	// a granted lease, detected at the last cycle of the horizon.
	f.Add(false, mustJSON(&inject.LeaseRequest{Worker: "w", Digest: digest}))
	lease, err := co.Acquire("w", digest)
	if err != nil {
		f.Fatal(err)
	}
	outs := make([]lockstep.Outcome, lease.Span.Hi-lease.Span.Lo)
	outs[0] = lockstep.Outcome{Detected: true, DetectCycle: cfg.RunCycles - 1, DSR: 5}
	outs[1] = lockstep.Outcome{Converged: true}
	f.Add(true, mustJSON(&inject.SpanSubmit{Worker: "w", Digest: digest, LeaseID: lease.LeaseID,
		Span: lease.Span, BusyUS: 10, Pruned: 2, OracleChecked: 1, Outcomes: outs}))
	f.Add(true, mustJSON(&inject.SpanSubmit{Worker: "w", Digest: digest, LeaseID: 99,
		Span: inject.Span{Lo: 0, Hi: 1}, Outcomes: []lockstep.Outcome{{Failed: true}}}))
	f.Add(false, []byte(`{"worker":"w","digest":"0123456789abcdef"}`))
	f.Add(false, []byte(`{"worker":"w","digest":"`+digest+`","want":-5}`))
	f.Add(false, []byte(`{"worker":"w","digest":"`+digest+`","want":1e30}`))
	f.Add(true, []byte(`{"digest":"`+digest+`","span":{"lo":-1,"hi":9223372036854775807},"outcomes":[]}`))
	f.Add(true, []byte(`{"digest":"`+digest+`","span":{"lo":0,"hi":1},"outcomes":[{"dsr":1}]}`))
	f.Add(true, []byte(`{"digest":"`+digest+`","span":{"lo":0,"hi":1},"outcomes":[{"detected":true,"detect_cycle":-1}]}`))
	f.Add(true, []byte(`{"digest":"`+digest+`","span":{"lo":0,"hi":1},"outcomes":[{}],"pruned":-1}`))
	f.Add(true, []byte(`{"digest":"`+digest+`","records":[]}`))
	f.Add(true, []byte("lkdw\x01\x03"))
	f.Add(false, []byte(`{} trailing`))
	f.Add(false, []byte(`null`))
	f.Add(false, []byte(``))

	f.Fuzz(func(t *testing.T, span bool, body []byte) {
		path := base + "/leases"
		if span {
			path = base + "/spans"
		}
		rec := httptest.NewRecorder()
		d.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(string(body))))
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
			t.Fatalf("non-JSON response (%q) for %q", ct, body)
		}
		if rec.Code == http.StatusOK {
			return
		}
		if rec.Code < 400 || rec.Code > 499 {
			t.Fatalf("%s answered %d for %q: %s", path, rec.Code, body, rec.Body)
		}
		var envelope struct {
			Error *apiError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == nil || envelope.Error.Code == "" {
			t.Fatalf("rejection without the error envelope for %q: %s", body, rec.Body)
		}
	})
}

// TestWorstCaseSpanFitsBody: the largest span submission a worker can
// send — inject.MaxLeaseSpan outcomes, each detected, converged and
// failed, with the largest cycle a campaign allows (Config bounds
// RunCycles at 1<<16) and the largest DSR — fits in maxSpanBody, so the
// body limit never refuses a real span.
func TestWorstCaseSpanFitsBody(t *testing.T) {
	outs := make([]lockstep.Outcome, inject.MaxLeaseSpan)
	for i := range outs {
		outs[i] = lockstep.Outcome{Detected: true, DetectCycle: 1<<16 - 1, DSR: math.MaxUint64, Converged: true, Failed: true}
	}
	sub := &inject.SpanSubmit{
		Worker: strings.Repeat("w", 256), Digest: strings.Repeat("d", 256), LeaseID: math.MaxUint64,
		Span:   inject.Span{Lo: math.MaxInt - inject.MaxLeaseSpan, Hi: math.MaxInt},
		BusyUS: math.MaxInt64, Pruned: inject.MaxLeaseSpan, OracleChecked: inject.MaxLeaseSpan, Outcomes: outs,
	}
	data, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > maxSpanBody {
		t.Fatalf("worst-case span of %d outcomes is %d bytes, over the %d-byte body limit", len(outs), len(data), maxSpanBody)
	}
	t.Logf("worst-case span: %d bytes (%.1f per outcome) of %d", len(data), float64(len(data))/float64(len(outs)), maxSpanBody)
}
