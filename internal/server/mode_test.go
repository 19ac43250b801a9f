package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
)

// doHdr is do with request headers, for the X-Lockstep-Mode checks.
func doHdr(t *testing.T, s *Server, method, path, body string, hdr map[string]string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	out := map[string]any{}
	if ct := rec.Header().Get("Content-Type"); strings.Contains(ct, "json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, path, rec.Body.String(), err)
		}
	} else {
		out["raw"] = rec.Body.String()
	}
	return rec.Code, out
}

// TestCampaignModeErrors is the server half of the Slip validation
// satellite: a bad mode string is a 400 on the "mode" field, and a
// structurally valid but unsatisfiable slip surfaces the same
// ConfigError{Field: "Slip"} rendering the lockstep-inject CLI prints —
// the two submission paths must name the offending field identically.
func TestCampaignModeErrors(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name  string
		body  string
		field string
		msg   string
	}{
		{"unparseable mode", `{"mode":"bogus"}`, "mode", "bogus"},
		{"non-canonical slip", `{"mode":"slip:007"}`, "mode", ""},
		{"negative slip", `{"mode":"slip:-3"}`, "Slip", "config Slip: negative slip -3"},
		{"slip eats the horizon", `{"run_cycles":3000,"mode":"slip:3000"}`, "Slip", "no compare horizon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, s, "POST", "/v1/campaigns", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %v)", code, body)
			}
			e := apiErrOf(t, body)
			if e["code"] != "invalid_config" {
				t.Fatalf("error code %v, want invalid_config", e["code"])
			}
			if e["field"] != tc.field {
				t.Fatalf("error field %v, want %q", e["field"], tc.field)
			}
			if tc.msg != "" && !strings.Contains(e["message"].(string), tc.msg) {
				t.Fatalf("error message %q does not contain %q", e["message"], tc.msg)
			}
		})
	}

	// The startup table is dcls-trained; a client declaring a slip
	// deployment must be refused, a dcls (or silent) client served.
	code, body := doHdr(t, s, "POST", "/v1/predict", `{"dsr":"1"}`,
		map[string]string{"X-Lockstep-Mode": "slip:16"})
	if code != http.StatusConflict || apiErrOf(t, body)["code"] != "mode_mismatch" {
		t.Fatalf("slip client against dcls table: %d %v, want 409 mode_mismatch", code, body)
	}
	if code, body := doHdr(t, s, "POST", "/v1/predict", `{"dsr":"1"}`,
		map[string]string{"X-Lockstep-Mode": "dcls"}); code != http.StatusOK {
		t.Fatalf("dcls client against dcls table: %d %v", code, body)
	}
}

// TestCampaignModesRoundTrip is the end-to-end acceptance path of the
// mode axis: a campaign submitted with each mode over HTTP produces a
// mode-stamped dataset byte-identical to a direct run, records the mode
// in its on-disk manifest, trains-and-swaps a table bundle that carries
// the mode, and the predict path enforces it.
func TestCampaignModesRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	dclsID := ""
	if code, body := do(t, s, "POST", "/v1/campaigns", campaignJSON); code == http.StatusAccepted || code == http.StatusOK {
		dclsID = body["id"].(string)
	} else {
		t.Fatalf("dcls submit failed: %d %v", code, body)
	}
	waitJob(t, s, dclsID, stateDone)

	for _, mode := range []string{"slip:16", "tmr"} {
		t.Run(mode, func(t *testing.T) {
			req := strings.TrimSuffix(campaignJSON, "}") + `,"mode":"` + mode + `","train":true}`
			code, body := do(t, s, "POST", "/v1/campaigns", req)
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d %v", code, body)
			}
			id := body["id"].(string)
			if id == dclsID {
				t.Fatalf("%s campaign got the dcls job ID %s; modes must be distinct jobs", mode, id)
			}
			final := waitJob(t, s, id, stateDone)

			// Dataset: byte-identical to a direct run under the same mode,
			// and every record row carries the mode column.
			lsMode, err := lockstep.ParseMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			cfg := trainingCampaign()
			cfg.Mode = lsMode
			want, err := inject.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wantCSV bytes.Buffer
			if err := want.WriteCSV(&wantCSV); err != nil {
				t.Fatal(err)
			}
			code, dsBody := do(t, s, "GET", "/v1/campaigns/"+id+"/dataset", "")
			if code != http.StatusOK {
				t.Fatalf("dataset: %d", code)
			}
			got := dsBody["raw"].(string)
			if !bytes.Equal([]byte(got), wantCSV.Bytes()) {
				t.Fatalf("HTTP %s dataset differs from direct inject.Run (%d vs %d bytes)", mode, len(got), wantCSV.Len())
			}
			lines := strings.Split(strings.TrimSpace(got), "\n")
			if !strings.HasSuffix(lines[0], ",mode") {
				t.Fatalf("%s dataset header lacks the mode column: %q", mode, lines[0])
			}
			for _, line := range lines[1:] {
				if !strings.HasSuffix(line, ","+mode) {
					t.Fatalf("record without %s mode column: %q", mode, line)
				}
			}

			// Manifest: the on-disk job record names the mode.
			mf, err := os.ReadFile(s.jobs.mfPath(id))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(mf, []byte(`"mode":"`+mode+`"`)) {
				t.Fatalf("manifest for %s campaign lacks the mode: %s", mode, mf)
			}

			// Table bundle: train-and-swap carried the mode into the
			// registry and the live bundle.
			trained, _ := final["trained_table"].(string)
			if trained == "" {
				t.Fatalf("train:true %s job trained no table: %v", mode, final)
			}
			if got := s.TableVersion(); got != trained {
				t.Fatalf("serving %s, want trained %s", got, trained)
			}
			code, list := do(t, s, "GET", "/v1/tables", "")
			if code != http.StatusOK {
				t.Fatalf("tables list: %d", code)
			}
			found := false
			for _, tb := range list["tables"].([]any) {
				e := tb.(map[string]any)
				if e["version"] == trained {
					found = true
					if e["mode"] != mode {
						t.Fatalf("bundle %s mode %v, want %s", trained, e["mode"], mode)
					}
				}
			}
			if !found {
				t.Fatalf("trained version %s not in tables list", trained)
			}

			// Predict: the live table now requires this mode.
			if code, body := doHdr(t, s, "POST", "/v1/predict", `{"dsr":"1"}`,
				map[string]string{"X-Lockstep-Mode": mode}); code != http.StatusOK {
				t.Fatalf("matching-mode predict: %d %v", code, body)
			}
			code, body = doHdr(t, s, "POST", "/v1/predict", `{"dsr":"1"}`,
				map[string]string{"X-Lockstep-Mode": "dcls"})
			if code != http.StatusConflict || apiErrOf(t, body)["code"] != "mode_mismatch" {
				t.Fatalf("dcls client against %s table: %d %v, want 409 mode_mismatch", mode, code, body)
			}
		})
	}
}

// TestSlipCampaignDrainResume: a slip-mode campaign drained mid-run
// resumes from its checkpoint on a fresh server (the mode rides the
// fingerprint, so resumption is only possible under the same mode) and
// finishes byte-identical to an uninterrupted run.
func TestSlipCampaignDrainResume(t *testing.T) {
	dir := t.TempDir()
	_, _, table := testFixture(t)
	s, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	// no_prune: every experiment is simulated, so progress passes 16 early
	// in a run of tens of milliseconds and the drain lands mid-run. A
	// pruned run resolves most sites in its first pass and then simulates
	// for a few milliseconds, which the drain often missed.
	big := `{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":3,"seed":9,"checkpoint_every":8,"workers":2,"mode":"slip:16","no_prune":true}`
	code, body := do(t, s, "POST", "/v1/campaigns", big)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	for i := 0; ; i++ {
		_, st := do(t, s, "GET", "/v1/campaigns/"+id, "")
		if st["state"].(string) == stateDone {
			t.Skip("campaign finished before the drain; machine too fast for this size")
		}
		if st["done"].(float64) >= 16 {
			break
		}
		if i > 20000 {
			t.Fatal("campaign never progressed")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, st := do(t, s, "GET", "/v1/campaigns/"+id, ""); st["state"].(string) == stateDone {
		t.Skip("campaign finished between progress check and drain")
	}

	s2, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Drain(ctx)
	})
	final := waitJob(t, s2, id, stateDone)
	if restored := int(final["restored"].(float64)); restored < 16 {
		t.Fatalf("resumed slip job restored %d experiments, want >= 16", restored)
	}

	cfg := trainingCampaign()
	cfg.FlopStride = 3
	cfg.Mode = lockstep.Mode{Kind: lockstep.ModeSlip, Slip: 16}
	want, err := inject.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := want.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	code, dsBody := do(t, s2, "GET", "/v1/campaigns/"+id+"/dataset", "")
	if code != http.StatusOK {
		t.Fatalf("dataset after resume: %d", code)
	}
	if got := dsBody["raw"].(string); !bytes.Equal([]byte(got), wantCSV.Bytes()) {
		t.Fatal("drained+resumed slip dataset differs from uninterrupted direct run")
	}
}
