package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lockstep/internal/core"
	"lockstep/internal/dataset"
	"lockstep/internal/handler"
	"lockstep/internal/inject"
	"lockstep/internal/sbist"
	"lockstep/internal/telemetry"
)

// trainingCampaign is the schedule of the shared test campaign; tests
// that byte-compare server datasets against a direct inject.Run use the
// same schedule.
func trainingCampaign() inject.Config {
	return inject.Config{
		Kernels:               []string{"ttsprk"},
		RunCycles:             3000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            24,
		Seed:                  9,
	}
}

// campaignJSON is the wire form of trainingCampaign.
const campaignJSON = `{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":24,"seed":9}`

var fixtureOnce sync.Once
var fixture struct {
	ds    *dataset.Dataset
	csv   []byte
	table *core.Table
}

// testFixture runs the shared campaign once per test binary and trains
// a prediction table from it.
func testFixture(t *testing.T) (*dataset.Dataset, []byte, *core.Table) {
	t.Helper()
	return fixtureData()
}

func fixtureData() (*dataset.Dataset, []byte, *core.Table) {
	fixtureOnce.Do(func() {
		ds, err := inject.Run(trainingCampaign())
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			panic(err)
		}
		fixture.ds = ds
		fixture.csv = buf.Bytes()
		fixture.table = core.Train(ds, core.Coarse7, 0)
	})
	return fixture.ds, fixture.csv, fixture.table
}

// newTestServer builds a server on a fresh registry and temp data dir,
// drained at cleanup.
func newTestServer(t *testing.T, mutate func(*Options)) *Server {
	t.Helper()
	_, _, table := testFixture(t)
	opt := Options{
		Table:    table,
		DataDir:  t.TempDir(),
		Registry: telemetry.New(),
	}
	if mutate != nil {
		mutate(&opt)
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

// do performs one in-process request and decodes the response body.
func do(t *testing.T, s *Server, method, path, body string) (int, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
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

// apiErrOf digs the error envelope out of a decoded response.
func apiErrOf(t *testing.T, body map[string]any) map[string]any {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error envelope: %v", body)
	}
	return e
}

// TestEndpointErrors is the table-driven error-path suite: every
// endpoint's failure modes must come back as the structured envelope
// with the right status and code.
func TestEndpointErrors(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name         string
		method, path string
		body         string
		status       int
		code         string
		field        string
		msg          string
	}{
		{"malformed JSON", "POST", "/v1/predict", "{", http.StatusBadRequest, "bad_request", "", ""},
		{"malformed DSR", "POST", "/v1/predict", `{"dsr":"zz"}`, http.StatusBadRequest, "bad_request", "", ""},
		{"decimal string DSR rejected as hex", "POST", "/v1/predict", `{"dsr":"-4"}`, http.StatusBadRequest, "bad_request", "", ""},
		{"missing DSR", "POST", "/v1/predict", `{}`, http.StatusBadRequest, "bad_request", "dsr", ""},
		{"both dsr and dsrs", "POST", "/v1/predict", `{"dsr":"1","dsrs":["2"]}`, http.StatusBadRequest, "bad_request", "dsr", ""},
		{"unknown field", "POST", "/v1/predict", `{"dsr":"1","x":2}`, http.StatusBadRequest, "bad_request", "", ""},
		{"trailing garbage", "POST", "/v1/predict", `{"dsr":"1"} {}`, http.StatusBadRequest, "bad_request", "", ""},
		{"oversized batch", "POST", "/v1/predict", oversizedBatch(4097), http.StatusRequestEntityTooLarge, "batch_too_large", "dsrs", ""},
		{"campaign malformed", "POST", "/v1/campaigns", "[1,2]", http.StatusBadRequest, "bad_request", "", ""},
		{"campaign trailing close delimiter", "POST", "/v1/campaigns", campaignJSON + "}", http.StatusBadRequest, "bad_request", "", ""},
		// Lease length is the operator's (-lease-size): a submission that
		// names one is refused, not silently given another length.
		{"campaign names lease_size", "POST", "/v1/campaigns", strings.TrimSuffix(distCampaignJSON, "}") + `,"lease_size":32}`, http.StatusBadRequest, "bad_request", "", ""},
		// The message must be the exact ConfigError rendering the
		// lockstep-inject CLI prints, so both paths report the offending
		// field identically.
		{"campaign unknown kernel", "POST", "/v1/campaigns", `{"kernels":["nosuch"]}`, http.StatusBadRequest, "invalid_config", "Kernels", `config Kernels: unknown kernel "nosuch"`},
		{"campaign unknown kind", "POST", "/v1/campaigns", `{"kinds":["gamma-ray"]}`, http.StatusBadRequest, "invalid_config", "Kinds", ""},
		{"campaign negative cycles", "POST", "/v1/campaigns", `{"run_cycles":-1}`, http.StatusBadRequest, "invalid_config", "run_cycles", ""},
		// Sizes the plan cannot hold are refused before a job exists.
		{"campaign more intervals than cycles", "POST", "/v1/campaigns", `{"run_cycles":100,"intervals":101}`, http.StatusBadRequest, "invalid_config", "Intervals", ""},
		{"campaign run cycles past the limit", "POST", "/v1/campaigns", `{"run_cycles":65537}`, http.StatusBadRequest, "invalid_config", "RunCycles", ""},
		{"campaign too many experiments", "POST", "/v1/campaigns", `{"injections_per_flop_kind":1000000000}`, http.StatusBadRequest, "invalid_config", "InjectionsPerFlopKind", ""},
		{"campaign experiment count overflows", "POST", "/v1/campaigns", `{"injections_per_flop_kind":9000000000000000000}`, http.StatusBadRequest, "invalid_config", "InjectionsPerFlopKind", ""},
		{"unknown job", "GET", "/v1/campaigns/deadbeef", "", http.StatusNotFound, "unknown_job", "id", ""},
		{"unknown job dataset", "GET", "/v1/campaigns/deadbeef/dataset", "", http.StatusNotFound, "unknown_job", "id", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, s, tc.method, tc.path, tc.body)
			if code != tc.status {
				t.Fatalf("status %d, want %d (body %v)", code, tc.status, body)
			}
			e := apiErrOf(t, body)
			if e["code"] != tc.code {
				t.Fatalf("error code %v, want %q", e["code"], tc.code)
			}
			if tc.field != "" && e["field"] != tc.field {
				t.Fatalf("error field %v, want %q", e["field"], tc.field)
			}
			if tc.msg != "" && !strings.Contains(e["message"].(string), tc.msg) {
				t.Fatalf("error message %q does not contain %q", e["message"], tc.msg)
			}
		})
	}
}

func oversizedBatch(n int) string {
	var b strings.Builder
	b.WriteString(`{"dsrs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"1"`)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestPredictMatchesOfflineHandler is the acceptance contract: for every
// distinct DSR pattern in the training set, the endpoint must return
// exactly the unit order and error type the offline handler path
// produces.
func TestPredictMatchesOfflineHandler(t *testing.T) {
	ds, _, table := testFixture(t)
	s := newTestServer(t, nil)

	seen := map[uint64]bool{}
	var dsrs []string
	for _, r := range ds.Records {
		if r.Detected && !seen[r.DSR] {
			seen[r.DSR] = true
			dsrs = append(dsrs, fmt.Sprintf("%q", fmt.Sprintf("%x", r.DSR)))
		}
	}
	if len(dsrs) < 10 {
		t.Fatalf("training set has only %d distinct DSRs; fixture too small", len(dsrs))
	}
	// Add one never-trained pattern to cover the default entry.
	dsrs = append(dsrs, `"3fffffffffffffff"`)

	code, body := do(t, s, "POST", "/v1/predict", `{"dsrs":[`+strings.Join(dsrs, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("predict: status %d, body %v", code, body)
	}
	preds := body["predictions"].([]any)
	if len(preds) != len(dsrs) {
		t.Fatalf("%d predictions for %d DSRs", len(preds), len(dsrs))
	}

	h := handler.New(table, sbist.NewConfig(core.Coarse7, nil, sbist.OnChipTableAccess))
	for i, p := range preds {
		pm := p.(map[string]any)
		var dsr uint64
		fmt.Sscanf(pm["dsr"].(string), "%x", &dsr)
		want := h.Predict(dsr)
		wantType := "soft"
		if want.Hard {
			wantType = "hard"
		}
		if pm["type"] != wantType || int(pm["ptar"].(float64)) != want.PTAR || pm["known"].(bool) != want.Known {
			t.Fatalf("prediction %d (DSR %x): got %v, offline handler says type=%s ptar=%d known=%v",
				i, dsr, pm, wantType, want.PTAR, want.Known)
		}
		order := pm["order"].([]any)
		if len(order) != len(want.Order) {
			t.Fatalf("DSR %x: order length %d, want %d", dsr, len(order), len(want.Order))
		}
		for j := range order {
			if int(order[j].(float64)) != int(want.Order[j]) {
				t.Fatalf("DSR %x: order %v, offline handler says %v", dsr, order, want.Order)
			}
			if pm["units"].([]any)[j].(string) != want.Units[j] {
				t.Fatalf("DSR %x: unit names %v, want %v", dsr, pm["units"], want.Units)
			}
		}
	}
}

// TestPredictSingleAndNumericDSR: the single-DSR sugar and numeric DSRs
// behave like a one-element batch.
func TestPredictSingleAndNumericDSR(t *testing.T) {
	s := newTestServer(t, nil)
	for _, body := range []string{`{"dsr":"0x2a"}`, `{"dsr":42}`, `{"dsrs":[42]}`} {
		code, resp := do(t, s, "POST", "/v1/predict", body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", body, code, resp)
		}
		preds := resp["predictions"].([]any)
		if len(preds) != 1 {
			t.Fatalf("%s: %d predictions", body, len(preds))
		}
		if got := preds[0].(map[string]any)["dsr"]; got != "2a" {
			t.Fatalf("%s: echoed DSR %v, want 2a", body, got)
		}
	}
}

// TestPredictWithoutTable: a server without a table keeps the campaign
// API but answers 503 on predict.
func TestPredictWithoutTable(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.Table = nil })
	code, body := do(t, s, "POST", "/v1/predict", `{"dsr":"1"}`)
	if code != http.StatusServiceUnavailable || apiErrOf(t, body)["code"] != "table_not_loaded" {
		t.Fatalf("predict without table: %d %v", code, body)
	}
}

// edgeHost is one of the two hosts that serve through the Server's edge:
// lockstep-serve, and the -distribute coordinator NewDistributor builds.
type edgeHost struct {
	name string
	s    *Server
	// posts are POST routes with a JSON body; posts[0] answers ok with
	// 200.
	posts []string
	ok    string
}

// edgeHosts builds both hosts with the limiter and request deadline
// given (zero keeps the default). The coordinator takes no Options, so
// its limiter and deadline are set on the *Server itself.
func edgeHosts(t *testing.T, maxInFlight int, timeout time.Duration) []edgeHost {
	t.Helper()
	serve := newTestServer(t, func(o *Options) {
		o.MaxInFlight = maxInFlight
		o.RequestTimeout = timeout
	})
	co, err := inject.NewCoordinator(trainingCampaign(), inject.DistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewDistributor(co).(*Server)
	if maxInFlight > 0 {
		coord.limiter = make(chan struct{}, maxInFlight)
	}
	if timeout > 0 {
		coord.opt.RequestTimeout = timeout
	}
	campaign := "/v1/campaigns/" + co.Digest()
	return []edgeHost{
		{"lockstep-serve", serve, []string{"/v1/predict", "/v1/campaigns"}, `{"dsr":"1"}`},
		{"coordinator", coord, []string{campaign + "/leases", campaign + "/spans"},
			`{"worker":"w","digest":"` + co.Digest() + `"}`},
	}
}

// TestDeadlineExceeded: an expired per-request deadline answers 504 with
// the structured envelope on every endpoint of both hosts.
func TestDeadlineExceeded(t *testing.T) {
	for _, h := range edgeHosts(t, 0, time.Nanosecond) {
		for _, path := range h.posts {
			code, body := do(t, h.s, "POST", path, `{}`)
			if code != http.StatusGatewayTimeout || apiErrOf(t, body)["code"] != "deadline_exceeded" {
				t.Fatalf("%s %s: %d %v, want 504 deadline_exceeded", h.name, path, code, body)
			}
		}
	}
}

// TestConcurrencyLimiter: with the limiter full, requests to either
// host get an immediate structured 429 and the throttle counter moves;
// once the slot frees, requests flow again.
func TestConcurrencyLimiter(t *testing.T) {
	for _, h := range edgeHosts(t, 1, 0) {
		t.Run(h.name, func(t *testing.T) {
			s := h.s
			// The coordinator counts into telemetry.Default, which other
			// tests share.
			throttled := s.throttled.Value()
			hold := make(chan struct{})
			s.testHold = hold

			release := make(chan int, 1)
			go func() {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", h.posts[0], strings.NewReader(h.ok)))
				release <- rec.Code
			}()
			// Wait until the held request owns the only slot.
			for i := 0; s.inFlight.Value() == 0; i++ {
				if i > 1000 {
					t.Fatal("held request never claimed the limiter slot")
				}
				time.Sleep(time.Millisecond)
			}

			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", h.posts[0], strings.NewReader(h.ok)))
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("limiter full: status %d, want 429", rec.Code)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			var envelope struct {
				Error struct{ Code string }
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != "overloaded" {
				t.Fatalf("429 body %q (err %v), want overloaded envelope", rec.Body.String(), err)
			}
			if n := s.throttled.Value() - throttled; n != 1 {
				t.Fatalf("throttled counter moved by %d, want 1", n)
			}

			close(hold)
			if code := <-release; code != http.StatusOK {
				t.Fatalf("held request finished with %d", code)
			}
			s.testHold = nil
			if code, _ := do(t, s, "POST", h.posts[0], h.ok); code != http.StatusOK {
				t.Fatalf("after release: status %d", code)
			}
		})
	}
}

// TestHTTPServerClosesPartialRequest: a client that sends only part of
// its request line never reaches the limiter, so the http.Server itself
// must close the connection once readHeaderTimeout passes.
func TestHTTPServerClosesPartialRequest(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(newTestServer(t, nil))
	if hs.IdleTimeout <= 0 {
		t.Fatal("NewHTTPServer sets no IdleTimeout")
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/pre")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	// net/http answers 400 before it hangs up; only the close matters.
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after a partial request line (read %q): %v", reply, err)
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}

// TestTrickledBodyReleasesSlot: on either host, a client that sends its
// headers and one byte of a 100-byte body holds the only limiter slot
// for the request deadline, not as long as it likes. Its request is
// answered 504, and a second client then gets 200.
func TestTrickledBodyReleasesSlot(t *testing.T) {
	t.Parallel()
	for _, h := range edgeHosts(t, 1, 200*time.Millisecond) {
		t.Run(h.name, func(t *testing.T) {
			t.Parallel()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hs := NewHTTPServer(h.s)
			go hs.Serve(ln)
			defer hs.Close()

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("POST " + h.posts[0] + " HTTP/1.1\r\nHost: lockstep\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{")); err != nil {
				t.Fatal(err)
			}
			for start := time.Now(); h.s.inFlight.Value() == 0; time.Sleep(time.Millisecond) {
				if time.Since(start) > 5*time.Second {
					t.Fatal("the trickled request never claimed the limiter slot")
				}
			}

			url := "http://" + ln.Addr().String() + h.posts[0]
			deadline := time.Now().Add(3 * time.Second)
			for {
				resp, err := http.Post(url, "application/json", strings.NewReader(h.ok))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
				if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
					t.Fatalf("second client: %d while a trickled body holds the slot; want 200 once the request deadline ends it", resp.StatusCode)
				}
				time.Sleep(20 * time.Millisecond)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			reply, _ := io.ReadAll(conn)
			if !strings.HasPrefix(string(reply), "HTTP/1.1 504") {
				t.Fatalf("trickled request answered %q, want 504", reply)
			}
		})
	}
}

// waitJob polls the status endpoint until the job reaches a terminal
// state (or the want state) and returns the final status body.
func waitJob(t *testing.T, s *Server, id, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := do(t, s, "GET", "/v1/campaigns/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status poll: %d %v", code, body)
		}
		state := body["state"].(string)
		if state == want || state == stateFailed {
			if state != want {
				t.Fatalf("job reached %q (error %v), want %q", state, body["error"], want)
			}
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q waiting for %q", state, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCampaignLifecycle drives the happy path end to end in process:
// submit, idempotent resubmit, status, completion, dataset download
// byte-identical to a direct inject.Run of the same schedule.
func TestCampaignLifecycle(t *testing.T) {
	_, wantCSV, _ := testFixture(t)
	s := newTestServer(t, nil)

	code, body := do(t, s, "POST", "/v1/campaigns", campaignJSON)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)
	if total := int(body["total"].(float64)); total <= 0 {
		t.Fatalf("submit echoed total %d", total)
	}

	// Resubmitting the same schedule is the same job, not a new one.
	code, body = do(t, s, "POST", "/v1/campaigns", campaignJSON)
	if code != http.StatusOK || body["id"].(string) != id {
		t.Fatalf("resubmit: status %d id %v, want 200 %s", code, body["id"], id)
	}

	// A dataset request before completion is a structured 409 (unless
	// the partial prefix is asked for explicitly).
	if code, body := do(t, s, "GET", "/v1/campaigns/"+id+"/dataset", ""); code == http.StatusOK {
		_ = body // completed already: fine, skip the 409 assertion
	} else if apiErrOf(t, body)["code"] != "not_done" {
		t.Fatalf("early dataset: %d %v", code, body)
	}

	final := waitJob(t, s, id, stateDone)
	if int(final["done"].(float64)) != int(final["total"].(float64)) {
		t.Fatalf("done %v != total %v", final["done"], final["total"])
	}

	code, dsBody := do(t, s, "GET", "/v1/campaigns/"+id+"/dataset", "")
	if code != http.StatusOK {
		t.Fatalf("dataset: status %d", code)
	}
	if got := dsBody["raw"].(string); !bytes.Equal([]byte(got), wantCSV) {
		t.Fatalf("HTTP dataset differs from direct inject.Run (%d vs %d bytes)", len(got), len(wantCSV))
	}

	// The job list shows it.
	code, list := do(t, s, "GET", "/v1/campaigns", "")
	if code != http.StatusOK || len(list["campaigns"].([]any)) != 1 {
		t.Fatalf("list: %d %v", code, list)
	}
}

// TestDrainAndRestartResume is the in-process restart contract: a drain
// interrupts a running job at an experiment boundary with a checkpoint;
// a new server on the same data directory adopts and resumes it, and the
// final dataset is byte-identical to an uninterrupted direct run.
func TestDrainAndRestartResume(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	_, _, table := testFixture(t)
	s, err := New(Options{Table: table, DataDir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	// A bigger campaign than the fixture so the drain lands mid-run, and
	// unpruned: every experiment is simulated, so progress passes 16 early
	// in a run of tens of milliseconds. A pruned run resolves most sites in
	// its first pass and then simulates for a few milliseconds, which the
	// drain often missed.
	big := `{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":3,"seed":9,"checkpoint_every":8,"workers":2,"no_prune":true}`
	code, body := do(t, s, "POST", "/v1/campaigns", big)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)

	// Wait for real progress, then drain.
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
	_, st := do(t, s, "GET", "/v1/campaigns/"+id, "")
	if st["state"].(string) == stateDone {
		t.Skip("campaign finished between the progress check and the drain; machine too fast for this size")
	}
	if st["state"].(string) != stateInterrupted {
		t.Fatalf("after drain: state %v, want interrupted", st["state"])
	}
	if _, err := os.Stat(s.jobs.ckPath(id)); err != nil {
		t.Fatalf("drained job has no checkpoint: %v", err)
	}
	// Post-drain submissions are refused.
	if code, body := do(t, s, "POST", "/v1/campaigns", `{"kernels":["puwmod"],"flop_stride":64}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %v", code, body)
	}

	// "Restart": a fresh server adopts the directory and resumes.
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
		t.Fatalf("resumed job restored %d experiments, want >= 16", restored)
	}

	code, dsBody := do(t, s2, "GET", "/v1/campaigns/"+id+"/dataset", "")
	if code != http.StatusOK {
		t.Fatalf("dataset after resume: %d", code)
	}
	direct := trainingCampaign()
	direct.FlopStride = 3
	directDS, err := inject.Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := directDS.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got := dsBody["raw"].(string); !bytes.Equal([]byte(got), want.Bytes()) {
		t.Fatal("drain+restart dataset differs from uninterrupted direct run")
	}
}

// TestAdoptRefusedManifest: a saved job whose request this build refuses
// does not keep the server from starting. {"run_cycles":50} keeps the
// default 64 intervals, which older builds planned and ran; a restarted
// server lists such a job as failed, with the config error naming the
// field, whether it was done or queued, and adopts the valid jobs beside
// it as usual, one whose request names lease fields included.
func TestAdoptRefusedManifest(t *testing.T) {
	dir := t.TempDir()
	_, _, table := testFixture(t)
	s, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	code, body := do(t, s, "POST", "/v1/campaigns", campaignJSON)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	valid := body["id"].(string)
	waitJob(t, s, valid, stateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// A manifest whose request names the per-campaign lease fields, which
	// submissions no longer accept, still adopts: manifests decode
	// leniently and the job ID is the schedule's digest.
	mf, err := os.ReadFile(s.jobs.mfPath(valid))
	if err != nil {
		t.Fatal(err)
	}
	mf = bytes.Replace(mf, []byte(`"request":{`), []byte(`"request":{"lease_size":32,"lease_ttl_ms":500,`), 1)
	if err := os.WriteFile(s.jobs.mfPath(valid), mf, 0o644); err != nil {
		t.Fatal(err)
	}
	refused := map[string]string{"refused-done": stateDone, "refused-queued": stateQueued}
	for id, state := range refused {
		mf := fmt.Sprintf(`{"id":%q,"request":{"kernels":["ttsprk"],"run_cycles":50},"total":129,"state":%q}`, id, state)
		if err := os.WriteFile(s.jobs.mfPath(id), []byte(mf), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New()})
	if err != nil {
		t.Fatalf("restart over a refused manifest: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Drain(ctx)
	})
	for id := range refused {
		code, st := do(t, s2, "GET", "/v1/campaigns/"+id, "")
		if code != http.StatusOK || st["state"] != stateFailed || !strings.Contains(fmt.Sprint(st["error"]), "Intervals") {
			t.Fatalf("%s: %d %v, want failed naming Intervals", id, code, st)
		}
	}
	if code, st := do(t, s2, "GET", "/v1/campaigns/"+valid, ""); code != http.StatusOK || st["state"] != stateDone {
		t.Fatalf("valid job after restart: %d %v", code, st)
	}
}

// TestAdoptMoreJobsThanQueue: a data directory can hold more unfinished
// jobs than the queue admits — a full queue plus the job that ran when
// the server was drained. A restart adopts every one of them without
// blocking and queues them in manifest order, and a new submission is
// still refused with 429 queue_full while the queue is full.
func TestAdoptMoreJobsThanQueue(t *testing.T) {
	dir := t.TempDir()
	// Distributed jobs: the one that runs waits for workers that never
	// come, so the rest stay queued while the test looks at them.
	var ids []string
	for seed := 1; seed <= queueDepth+1; seed++ {
		body := fmt.Sprintf(`{"kernels":["ttsprk"],"run_cycles":2000,"flop_stride":24,"seed":%d,"distribute":true}`, seed)
		req, cfg, err := parseCampaignRequest([]byte(body), 0)
		if err != nil {
			t.Fatal(err)
		}
		id, err := jobID(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total, err := cfg.Total()
		if err != nil {
			t.Fatal(err)
		}
		mf := mustJSON(manifest{ID: id, Request: req, Total: total, State: stateQueued})
		if err := os.WriteFile(filepath.Join(dir, id+".job.json"), mf, 0o644); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)

	started := make(chan *Server, 1)
	go func() {
		s, err := New(Options{DataDir: dir, Registry: telemetry.New()})
		if err != nil {
			t.Error(err)
		}
		started <- s
	}()
	var s *Server
	select {
	case s = <-started:
	case <-time.After(10 * time.Second):
		t.Fatalf("New has not returned after 10s with %d unfinished jobs on disk", len(ids))
	}
	if s == nil {
		t.FailNow()
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	waitJob(t, s, ids[0], stateRunning)
	code, body := do(t, s, "POST", "/v1/campaigns", campaignJSON)
	if code != http.StatusTooManyRequests || apiErrOf(t, body)["code"] != "queue_full" {
		t.Fatalf("submit to a full queue: %d %v, want 429 queue_full", code, body)
	}
	// The worker is held by the first job, so the queue can be read out
	// here: every other adopted job, in manifest order.
	for _, id := range ids[1:] {
		select {
		case j := <-s.jobs.queue:
			if j.ID != id {
				t.Fatalf("queued job %s, want %s (manifest order)", j.ID, id)
			}
		default:
			t.Fatalf("queue ran out before job %s", id)
		}
	}
}

// TestPartialDataset: while a job runs, ?partial=1 serves the completed
// prefix recovered from its checkpoint as valid dataset CSV.
func TestPartialDataset(t *testing.T) {
	s := newTestServer(t, nil)
	big := `{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":12,"seed":10,"checkpoint_every":8,"workers":2}`
	code, body := do(t, s, "POST", "/v1/campaigns", big)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	var partial string
	for i := 0; ; i++ {
		code, ds := do(t, s, "GET", "/v1/campaigns/"+id+"/dataset?partial=1", "")
		if code != http.StatusOK {
			t.Fatalf("partial dataset: %d %v", code, ds)
		}
		partial = ds["raw"].(string)
		if strings.Count(partial, "\n") > 1 { // header + at least one record
			break
		}
		_, st := do(t, s, "GET", "/v1/campaigns/"+id, "")
		if st["state"].(string) == stateDone {
			t.Skip("job finished before a partial snapshot could be observed")
		}
		if i > 20000 {
			t.Fatal("no partial records ever appeared")
		}
		time.Sleep(time.Millisecond)
	}
	got, err := dataset.ReadCSV(strings.NewReader(partial))
	if err != nil {
		t.Fatalf("partial dataset is not valid CSV: %v", err)
	}
	if got.Len() == 0 {
		t.Fatal("partial dataset empty despite records line")
	}
	waitJob(t, s, id, stateDone)
}

// TestWorkersClampedToCap: a request asking for more inject workers than
// the server allows is clamped, not rejected (bytes are identical at any
// worker count).
func TestWorkersClampedToCap(t *testing.T) {
	_, cfg, err := parseCampaignRequest([]byte(`{"workers":512}`), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 2 {
		t.Fatalf("workers %d, want clamp to 2", cfg.Workers)
	}
	_, cfg, err = parseCampaignRequest([]byte(`{}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 3 {
		t.Fatalf("default workers %d, want the cap 3", cfg.Workers)
	}
}

// TestHealthzAndMetrics: liveness and the registry snapshot endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, nil)
	code, body := do(t, s, "GET", "/healthz", "")
	if code != http.StatusOK || body["ok"] != true {
		t.Fatalf("healthz: %d %v", code, body)
	}
	if code, _ := do(t, s, "POST", "/v1/predict", `{"dsr":"1"}`); code != http.StatusOK {
		t.Fatalf("predict: %d", code)
	}
	code, body = do(t, s, "GET", "/v1/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if _, ok := body["counters"]; !ok {
		t.Fatalf("metrics snapshot has no counters: %v", body)
	}
}
