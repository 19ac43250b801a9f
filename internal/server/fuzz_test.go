package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lockstep/internal/core"
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
