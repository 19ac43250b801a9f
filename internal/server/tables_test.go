package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lockstep/internal/core"
	"lockstep/internal/dataset"
	"lockstep/internal/handler"
	"lockstep/internal/lockstep"
	"lockstep/internal/sbist"
	"lockstep/internal/telemetry"
)

// jsonString JSON-encodes a byte slice as a string literal, for inlining
// the fixture CSV into request bodies.
func jsonString(t testing.TB, b []byte) string {
	t.Helper()
	out, err := json.Marshal(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestTrainingParityWithOffline is the training-parity contract: a table
// trained via POST /v1/tables must be byte-identical — serialized image
// and every prediction — to what lockstep-train produces offline from
// the same dataset and parameters, across granularities, topK and split
// fractions. The shared entrypoint (core.TrainSplit) is what makes this
// hold; this test is what keeps the two paths from drifting.
func TestTrainingParityWithOffline(t *testing.T) {
	_, csv, _ := testFixture(t)
	cases := []struct {
		name string
		gran int
		topk int
		frac float64
	}{
		{"coarse_all_frac1", 7, 0, 1},
		{"coarse_top3_frac0.8", 7, 3, 0.8},
		{"fine_all_frac0.8", 13, 0, 0.8},
		{"fine_top3_frac1", 13, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, nil)
			req := fmt.Sprintf(`{"dataset_csv":%s,"granularity":%d,"topk":%d,"train_frac":%g,"seed":5}`,
				jsonString(t, csv), tc.gran, tc.topk, tc.frac)
			code, body := do(t, s, "POST", "/v1/tables", req)
			if code != http.StatusCreated {
				t.Fatalf("train: %d %v", code, body)
			}
			tbl := body["table"].(map[string]any)
			version := tbl["version"].(string)
			if body["swapped"] != true || tbl["active"] != true {
				t.Fatalf("trained table not swapped in: %v", body)
			}

			// Offline: exactly the lockstep-train pipeline on the same CSV.
			ds, err := dataset.ReadCSV(bytes.NewReader(csv))
			if err != nil {
				t.Fatal(err)
			}
			gran := core.Coarse7
			if tc.gran == 13 {
				gran = core.Fine13
			}
			rng := rand.New(rand.NewSource(5))
			offline, _, _ := core.TrainSplit(ds, rng, gran, tc.topk, tc.frac)
			var want bytes.Buffer
			if _, err := offline.WriteTo(&want); err != nil {
				t.Fatal(err)
			}

			b := s.tables.get(version)
			if b == nil {
				t.Fatalf("trained version %s not registered", version)
			}
			if !bytes.Equal(b.image, want.Bytes()) {
				t.Fatalf("server-trained image (%d bytes) differs from offline lockstep-train pipeline (%d bytes)",
					len(b.image), want.Len())
			}
			sum := sha256.Sum256(want.Bytes())
			if wantV := hex.EncodeToString(sum[:8]); version != wantV {
				t.Fatalf("version %s is not the offline image digest %s", version, wantV)
			}

			// Every prediction identical: the served table against the
			// offline handler, over every distinct detected DSR plus a
			// never-trained pattern.
			h := handler.New(offline, sbist.NewConfig(gran, nil, sbist.OnChipTableAccess))
			seen := map[uint64]bool{}
			var dsrs []uint64
			for _, r := range ds.Records {
				if r.Detected && !seen[r.DSR] {
					seen[r.DSR] = true
					dsrs = append(dsrs, r.DSR)
				}
			}
			dsrs = append(dsrs, 0x3fffffffffffffff)
			var reqB strings.Builder
			reqB.WriteString(`{"dsrs":[`)
			for i, d := range dsrs {
				if i > 0 {
					reqB.WriteByte(',')
				}
				fmt.Fprintf(&reqB, "%q", fmt.Sprintf("%x", d))
			}
			reqB.WriteString(`]}`)
			code, resp := do(t, s, "POST", "/v1/predict", reqB.String())
			if code != http.StatusOK {
				t.Fatalf("predict: %d %v", code, resp)
			}
			preds := resp["predictions"].([]any)
			if len(preds) != len(dsrs) {
				t.Fatalf("%d predictions for %d DSRs", len(preds), len(dsrs))
			}
			for i, p := range preds {
				pm := p.(map[string]any)
				wantP := h.Predict(dsrs[i])
				wantType := "soft"
				if wantP.Hard {
					wantType = "hard"
				}
				if pm["type"] != wantType || int(pm["ptar"].(float64)) != wantP.PTAR || pm["known"].(bool) != wantP.Known {
					t.Fatalf("DSR %x: served %v, offline handler says type=%s ptar=%d known=%v",
						dsrs[i], pm, wantType, wantP.PTAR, wantP.Known)
				}
				order := pm["order"].([]any)
				if len(order) != len(wantP.Order) {
					t.Fatalf("DSR %x: order length %d, want %d", dsrs[i], len(order), len(wantP.Order))
				}
				for j := range order {
					if int(order[j].(float64)) != int(wantP.Order[j]) || pm["units"].([]any)[j].(string) != wantP.Units[j] {
						t.Fatalf("DSR %x: served order %v/%v, offline %v/%v",
							dsrs[i], order, pm["units"], wantP.Order, wantP.Units)
					}
				}
			}
		})
	}
}

// TestTablesLifecycle drives the version registry end to end in process:
// list shows the startup table, training registers and swaps a new
// version (visible on predict ETags and healthz), activate rolls back,
// re-activating the live version is a no-op, and unknown versions 404.
func TestTablesLifecycle(t *testing.T) {
	_, csv, _ := testFixture(t)
	s := newTestServer(t, nil)
	v0 := s.TableVersion()
	if v0 == "" {
		t.Fatal("no startup table version")
	}

	code, body := do(t, s, "GET", "/v1/tables", "")
	if code != http.StatusOK || body["active"] != v0 {
		t.Fatalf("initial list: %d %v", code, body)
	}
	if n := len(body["tables"].([]any)); n != 1 {
		t.Fatalf("initial list has %d tables, want 1", n)
	}
	swaps0 := int(body["swaps"].(float64))

	// Predict responses carry the active version as their ETag.
	rec := doRaw(s, "POST", "/v1/predict", `{"dsr":"1"}`)
	if rec.Code != http.StatusOK || rec.Header().Get("ETag") != `"`+v0+`"` {
		t.Fatalf("predict ETag %q, want %q", rec.Header().Get("ETag"), `"`+v0+`"`)
	}

	// Train a structurally different table (fine granularity).
	code, body = do(t, s, "POST", "/v1/tables", `{"dataset_csv":`+jsonString(t, csv)+`,"granularity":13}`)
	if code != http.StatusCreated || body["swapped"] != true {
		t.Fatalf("train: %d %v", code, body)
	}
	v1 := body["table"].(map[string]any)["version"].(string)
	if v1 == v0 {
		t.Fatal("fine-granularity table has the coarse table's version")
	}
	if tr := body["training"].(map[string]any); int(tr["records"].(float64)) == 0 {
		t.Fatalf("training stats empty: %v", body)
	}

	// The swap is visible everywhere an operator would look.
	rec = doRaw(s, "POST", "/v1/predict", `{"dsr":"1"}`)
	if rec.Header().Get("ETag") != `"`+v1+`"` {
		t.Fatalf("post-swap predict ETag %q, want version %s", rec.Header().Get("ETag"), v1)
	}
	code, hz := do(t, s, "GET", "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	hzTable := hz["table"].(map[string]any)
	if hzTable["version"] != v1 || hzTable["granularity"] != core.Fine13.String() {
		t.Fatalf("healthz table %v, want version %s granularity %s", hzTable, v1, core.Fine13)
	}
	if int(hzTable["swaps"].(float64)) != swaps0+1 {
		t.Fatalf("healthz swaps %v, want %d", hzTable["swaps"], swaps0+1)
	}

	code, body = do(t, s, "GET", "/v1/tables", "")
	if code != http.StatusOK || body["active"] != v1 || len(body["tables"].([]any)) != 2 {
		t.Fatalf("list after train: %d %v", code, body)
	}

	// Rollback to the startup version; re-activation is idempotent.
	code, body = do(t, s, "POST", "/v1/tables/"+v0+"/activate", "")
	if code != http.StatusOK || body["swapped"] != true {
		t.Fatalf("rollback: %d %v", code, body)
	}
	if got := s.TableVersion(); got != v0 {
		t.Fatalf("after rollback serving %s, want %s", got, v0)
	}
	code, body = do(t, s, "POST", "/v1/tables/"+v0+"/activate", "")
	if code != http.StatusOK || body["swapped"] != false {
		t.Fatalf("re-activate current: %d %v, want swapped=false", code, body)
	}
	code, body = do(t, s, "POST", "/v1/tables/ffffffffffffffff/activate", "")
	if code != http.StatusNotFound || apiErrOf(t, body)["code"] != "unknown_table" {
		t.Fatalf("activate unknown: %d %v", code, body)
	}

	// Re-training the same dataset+parameters is the same version, not a
	// new registry entry, and does not count as a swap if already active.
	code, body = do(t, s, "POST", "/v1/tables", `{"dataset_csv":`+jsonString(t, csv)+`,"granularity":13}`)
	if code != http.StatusCreated {
		t.Fatalf("retrain: %d %v", code, body)
	}
	if got := body["table"].(map[string]any)["version"].(string); got != v1 {
		t.Fatalf("retrain produced version %s, want %s", got, v1)
	}
	if n := len(s.tables.list()); n != 2 {
		t.Fatalf("registry has %d tables after retrain, want 2", n)
	}
}

// TestTablesStagedActivation: "activate": false registers a version
// without swapping it in, and a later explicit activate swaps it.
func TestTablesStagedActivation(t *testing.T) {
	_, csv, _ := testFixture(t)
	s := newTestServer(t, nil)
	v0 := s.TableVersion()
	code, body := do(t, s, "POST", "/v1/tables",
		`{"dataset_csv":`+jsonString(t, csv)+`,"granularity":13,"activate":false}`)
	if code != http.StatusCreated || body["swapped"] != false {
		t.Fatalf("staged train: %d %v", code, body)
	}
	v1 := body["table"].(map[string]any)["version"].(string)
	if got := s.TableVersion(); got != v0 {
		t.Fatalf("staged training swapped the live table to %s", got)
	}
	if code, body = do(t, s, "POST", "/v1/tables/"+v1+"/activate", ""); code != http.StatusOK {
		t.Fatalf("activate staged: %d %v", code, body)
	}
	if got := s.TableVersion(); got != v1 {
		t.Fatalf("serving %s after activating %s", got, v1)
	}
}

// TestTablesPersistenceAcrossRestart is the restart contract: table
// images and the last-activated version persist under the data
// directory, a restarted server adopts them, the persisted choice wins
// over -table, and a server started with no -table at all still serves
// the adopted version.
func TestTablesPersistenceAcrossRestart(t *testing.T) {
	_, csv, table := testFixture(t)
	dir := t.TempDir()
	drain := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}

	s1, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	v0 := s1.TableVersion()
	code, body := do(t, s1, "POST", "/v1/tables", `{"dataset_csv":`+jsonString(t, csv)+`,"granularity":13}`)
	if code != http.StatusCreated {
		t.Fatalf("train: %d %v", code, body)
	}
	v1 := body["table"].(map[string]any)["version"].(string)
	drain(s1)

	// Restart with the same -table: the persisted activation wins.
	s2, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.TableVersion(); got != v1 {
		t.Fatalf("restart serves %s, want last-activated %s", got, v1)
	}
	code, body = do(t, s2, "GET", "/v1/tables", "")
	if code != http.StatusOK || len(body["tables"].([]any)) != 2 {
		t.Fatalf("restart list: %d %v, want both versions", code, body)
	}
	// Roll back, then restart again: the rollback persists too.
	if code, body = do(t, s2, "POST", "/v1/tables/"+v0+"/activate", ""); code != http.StatusOK {
		t.Fatalf("rollback: %d %v", code, body)
	}
	drain(s2)

	// No -table at all: the adopted registry alone serves.
	s3, err := New(Options{DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.TableVersion(); got != v0 {
		t.Fatalf("tableless restart serves %q, want rolled-back %s", got, v0)
	}
	rec := doRaw(s3, "POST", "/v1/predict", `{"dsr":"1"}`)
	if rec.Code != http.StatusOK || rec.Header().Get("ETag") != `"`+v0+`"` {
		t.Fatalf("tableless restart predict: %d ETag %q", rec.Code, rec.Header().Get("ETag"))
	}
	drain(s3)
}

// TestTablesPersistBeforePublish: a table whose image cannot be written
// is not registered. With the image path blocked, POST /v1/tables answers
// 500 and leaves the version unlisted; once the path is clear, the same
// POST writes the image, and a restart adopts the version it activated.
func TestTablesPersistBeforePublish(t *testing.T) {
	_, csv, table := testFixture(t)
	dir := t.TempDir()
	s1, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	// The bundle POST /v1/tables trains from csv at granularity 13.
	ds, err := dataset.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	fine, _, _ := core.TrainSplit(ds, rand.New(rand.NewSource(1)), core.Fine13, 0, 1)
	want, err := newTableBundle(fine, "upload", lockstep.Mode{})
	if err != nil {
		t.Fatal(err)
	}
	image := filepath.Join(dir, "tables", want.version+".lspt")
	if err := os.Mkdir(image, 0o755); err != nil {
		t.Fatal(err)
	}
	req := `{"dataset_csv":` + jsonString(t, csv) + `,"granularity":13}`
	if code, body := do(t, s1, "POST", "/v1/tables", req); code != http.StatusInternalServerError {
		t.Fatalf("train onto a blocked image path: %d %v, want 500", code, body)
	}
	if s1.tables.get(want.version) != nil {
		t.Fatalf("version %s is registered though its image was never written", want.version)
	}

	if err := os.Remove(image); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, s1, "POST", "/v1/tables", req)
	if code != http.StatusCreated || body["table"].(map[string]any)["version"] != want.version {
		t.Fatalf("train after unblocking: %d %v, want 201 with version %s", code, body, want.version)
	}
	if got, err := os.ReadFile(image); err != nil || !bytes.Equal(got, want.image) {
		t.Fatalf("image after a successful train: %v (%d bytes, want %d)", err, len(got), len(want.image))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Drain(ctx)
	if got := s2.TableVersion(); got != want.version {
		t.Fatalf("restart serves %q, want %s", got, want.version)
	}
}

// TestTablesSidecarBeforeImage: a non-dcls bundle's .mode sidecar is
// written before its image, so a failed sidecar write leaves no image
// that adoption would read as dcls and refuse. With the sidecar path
// blocked, registering a tmr bundle fails; after unblocking, a restart
// starts, registers the bundle, and the next restart adopts it as tmr.
func TestTablesSidecarBeforeImage(t *testing.T) {
	_, _, table := testFixture(t)
	dir := t.TempDir()
	tmr := lockstep.Mode{Kind: lockstep.ModeTMR}
	start := func() (*Server, error) {
		s, err := New(Options{DataDir: dir, Registry: telemetry.New()})
		if err == nil {
			t.Cleanup(func() { s.Drain(context.Background()) })
		}
		return s, err
	}
	s1, err := start()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTableBundle(table, "upload", tmr)
	if err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(dir, "tables", b.version+".mode")
	if err := os.Mkdir(sidecar, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.tables.register(b); err == nil {
		t.Fatal("registered a tmr bundle whose sidecar could not be written")
	}
	if err := os.Remove(sidecar); err != nil {
		t.Fatal(err)
	}

	s2, err := start()
	if err != nil {
		t.Fatalf("restart after a failed sidecar write: %v", err)
	}
	if _, err := s2.tables.register(b); err != nil {
		t.Fatal(err)
	}
	s3, err := start()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := s3.tables.get(b.version); got == nil || got.mode != tmr {
		t.Fatalf("restart did not adopt version %s under tmr", b.version)
	}
}

// TestTopKBundleSameAnswerAcrossRestart: a top-3 table answers a DSR it
// was never trained on (the default entry) with the same body, under
// the same ETag, before a restart and after it, when it is read back
// from its image.
func TestTopKBundleSameAnswerAcrossRestart(t *testing.T) {
	_, csv, _ := testFixture(t)
	dir := t.TempDir()
	s1, err := New(Options{DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	code, body := do(t, s1, "POST", "/v1/tables", `{"dataset_csv":`+jsonString(t, csv)+`,"topk":3}`)
	if code != http.StatusCreated {
		t.Fatalf("train: %d %v", code, body)
	}
	const untrained = `{"dsr":"3fffffffffffffff"}`
	before := doRaw(s1, "POST", "/v1/predict", untrained)
	if before.Code != http.StatusOK || !strings.Contains(before.Body.String(), `"known":false`) {
		t.Fatalf("predict before restart: %d %s, want an untrained DSR's answer", before.Code, before.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(ctx)
	after := doRaw(s2, "POST", "/v1/predict", untrained)
	if after.Code != http.StatusOK || after.Header().Get("ETag") != before.Header().Get("ETag") || after.Body.String() != before.Body.String() {
		t.Fatalf("after restart: %d ETag %s\n%s\nbefore: ETag %s\n%s", after.Code, after.Header().Get("ETag"), after.Body,
			before.Header().Get("ETag"), before.Body)
	}
}

// TestCampaignTrainAndSwap: a campaign submitted with "train": true
// trains from its own dataset on completion and atomically swaps the
// result in; the job status and manifest record the version, and the
// version equals training the downloaded dataset through POST /v1/tables
// with the same parameters (the two server-side paths share one
// pipeline).
func TestCampaignTrainAndSwap(t *testing.T) {
	s := newTestServer(t, nil)
	v0 := s.TableVersion()

	req := strings.TrimSuffix(campaignJSON, "}") + `,"train":true,"train_granularity":13}`
	code, body := do(t, s, "POST", "/v1/campaigns", req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	final := waitJob(t, s, id, stateDone)
	trained, _ := final["trained_table"].(string)
	if trained == "" {
		t.Fatalf("done train:true job has no trained_table: %v", final)
	}
	if errMsg, ok := final["train_error"]; ok {
		t.Fatalf("train_error: %v", errMsg)
	}
	if trained == v0 {
		t.Fatal("trained version equals the startup version; swap unobservable")
	}
	if got := s.TableVersion(); got != trained {
		t.Fatalf("serving %s after train-on-completion, want %s", got, trained)
	}

	// The version must be what POST /v1/tables produces from the job's
	// dataset with everything defaulted — the request-level defaults
	// (frac 1, seed 1) are the campaign-train defaults, so the two
	// surfaces agree without the caller spelling them out.
	code, ds := do(t, s, "GET", "/v1/campaigns/"+id+"/dataset", "")
	if code != http.StatusOK {
		t.Fatalf("dataset: %d", code)
	}
	code, body = do(t, s, "POST", "/v1/tables",
		`{"campaign":"`+id+`","granularity":13}`)
	if code != http.StatusCreated {
		t.Fatalf("retrain via /v1/tables: %d %v", code, body)
	}
	if got := body["table"].(map[string]any)["version"].(string); got != trained {
		t.Fatalf("campaign-train version %s != /v1/tables version %s on the same dataset", trained, got)
	}
	_ = ds

	// The trained version survives in the manifest: a restart's adoption
	// reports it without re-training.
	st := s.jobs.get(id).status()
	if st.TrainedTable != trained {
		t.Fatalf("job status trained_table %q, want %q", st.TrainedTable, trained)
	}
}

// TestTablesEndpointErrors: every failure mode of the tables API comes
// back as the structured envelope with its stable code.
func TestTablesEndpointErrors(t *testing.T) {
	_, csv, _ := testFixture(t)
	s := newTestServer(t, nil)
	cases := []struct {
		name   string
		body   string
		status int
		code   string
		field  string
	}{
		{"malformed JSON", "{", http.StatusBadRequest, "bad_request", ""},
		{"trailing garbage", `{"dataset_csv":"x"} {}`, http.StatusBadRequest, "bad_request", ""},
		{"unknown field", `{"dataset_csv":"x","bogus":1}`, http.StatusBadRequest, "bad_request", ""},
		{"no source", `{}`, http.StatusBadRequest, "bad_request", "campaign"},
		{"both sources", `{"campaign":"a","dataset_csv":"b"}`, http.StatusBadRequest, "bad_request", "campaign"},
		{"bad granularity", `{"dataset_csv":"x","granularity":9}`, http.StatusBadRequest, "invalid_config", "granularity"},
		{"negative topk", `{"dataset_csv":"x","topk":-1}`, http.StatusBadRequest, "invalid_config", "topk"},
		{"train_frac too big", `{"dataset_csv":"x","train_frac":1.5}`, http.StatusBadRequest, "invalid_config", "train_frac"},
		{"train_frac negative", `{"dataset_csv":"x","train_frac":-0.5}`, http.StatusBadRequest, "invalid_config", "train_frac"},
		{"garbage dataset", `{"dataset_csv":"not,a,campaign\nlog"}`, http.StatusBadRequest, "invalid_dataset", "dataset_csv"},
		{"unknown campaign", `{"campaign":"deadbeef"}`, http.StatusNotFound, "unknown_job", "campaign"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, s, "POST", "/v1/tables", tc.body)
			if code != tc.status {
				t.Fatalf("status %d, want %d (body %v)", code, tc.status, body)
			}
			e := apiErrOf(t, body)
			if e["code"] != tc.code {
				t.Fatalf("code %v, want %q", e["code"], tc.code)
			}
			if tc.field != "" && e["field"] != tc.field {
				t.Fatalf("field %v, want %q", e["field"], tc.field)
			}
		})
	}

	// A campaign that is not done yet is a 409 not_done.
	big := `{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":6,"seed":9,"checkpoint_every":8,"workers":2}`
	code, body := do(t, s, "POST", "/v1/campaigns", big)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	code, body = do(t, s, "POST", "/v1/tables", `{"campaign":"`+id+`"}`)
	if code == http.StatusCreated {
		t.Log("campaign finished before the not_done probe; skipping that assertion")
	} else if code != http.StatusConflict || apiErrOf(t, body)["code"] != "not_done" {
		t.Fatalf("train from running campaign: %d %v, want 409 not_done", code, body)
	}
	waitJob(t, s, id, stateDone)

	// Campaign-referenced training without a data directory is the
	// campaign API's stable 503.
	noData := newTestServer(t, func(o *Options) { o.DataDir = "" })
	code, body = do(t, noData, "POST", "/v1/tables", `{"campaign":"deadbeef"}`)
	if code != http.StatusServiceUnavailable || apiErrOf(t, body)["code"] != "campaigns_disabled" {
		t.Fatalf("campaign train without -data: %d %v", code, body)
	}
	// Inline-dataset training needs no data directory at all.
	code, body = do(t, noData, "POST", "/v1/tables", `{"dataset_csv":`+jsonString(t, csv)+`}`)
	if code != http.StatusCreated {
		t.Fatalf("in-memory train: %d %v", code, body)
	}

	// Campaign submissions validate the train knobs too.
	code, body = do(t, s, "POST", "/v1/campaigns", `{"train":true,"train_granularity":9}`)
	if code != http.StatusBadRequest || apiErrOf(t, body)["field"] != "train_granularity" {
		t.Fatalf("bad train_granularity: %d %v", code, body)
	}
	code, body = do(t, s, "POST", "/v1/campaigns", `{"train":true,"train_topk":-1}`)
	if code != http.StatusBadRequest || apiErrOf(t, body)["field"] != "train_topk" {
		t.Fatalf("negative train_topk: %d %v", code, body)
	}
}

// TestHealthzWithoutTable: before any table has been activated, healthz
// omits the table block and predict keeps its stable 503 code.
func TestHealthzWithoutTable(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.Table = nil })
	code, body := do(t, s, "GET", "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if _, ok := body["table"]; ok {
		t.Fatalf("healthz reports a table with none loaded: %v", body)
	}
	code, body = do(t, s, "GET", "/v1/tables", "")
	if code != http.StatusOK || len(body["tables"].([]any)) != 0 {
		t.Fatalf("tables list without table: %d %v", code, body)
	}
	if _, ok := body["active"]; ok {
		t.Fatalf("empty registry reports an active version: %v", body)
	}
}
