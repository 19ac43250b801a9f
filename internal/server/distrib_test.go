package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
)

// distCampaignJSON submits trainingCampaign as a distributed job. Tests
// that need it to span several leases set the server's LeaseSize to 32.
const distCampaignJSON = `{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":24,"seed":9,"distribute":true}`

// postMsg POSTs msg to path on h — JSON-encoded, or verbatim when it is
// a string — and returns the status and the raw response body.
func postMsg(t *testing.T, h http.Handler, path string, msg any) (int, []byte) {
	t.Helper()
	body, ok := msg.(string)
	if !ok {
		data, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		body = string(data)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// decodeReply decodes a 200 reply body into out, failing on any other
// status.
func decodeReply(t *testing.T, code int, body []byte, out any) {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("reply %q: %v", body, err)
	}
}

// envelopeOf decodes an error response body into its envelope.
func envelopeOf(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("error body %q is not JSON: %v", body, err)
	}
	return apiErrOf(t, out)
}

// startWorkers joins n in-process workers to url, time-sliced through a
// shared gate (the test host may have one core), and fails the test on
// any worker error.
func startWorkers(t *testing.T, url string, n int) *sync.WaitGroup {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	gate := &sync.Mutex{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := RunWorker(ctx, WorkerOptions{
				URL: url, Name: name, InjectWorkers: 1, gate: gate,
			})
			if err != nil {
				t.Errorf("worker %s: %v (stats %+v)", name, err, st)
			}
		}()
	}
	return &wg
}

// TestDistributedCampaignMatchesDirect is the server-side contract of a
// distributed campaign: a distribute:true job served to two worker nodes
// over real HTTP produces a dataset byte-identical to a direct
// inject.Run, in every lockstep mode — the mode column included.
func TestDistributedCampaignMatchesDirect(t *testing.T) {
	for _, m := range []string{"dcls", "tmr", "slip:16"} {
		t.Run(m, func(t *testing.T) {
			mode, err := lockstep.ParseMode(m)
			if err != nil {
				t.Fatal(err)
			}
			cfg := trainingCampaign()
			cfg.Mode = mode
			want, err := inject.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wantCSV bytes.Buffer
			if err := want.WriteCSV(&wantCSV); err != nil {
				t.Fatal(err)
			}

			s := newTestServer(t, func(o *Options) { o.LeaseSize = 32 })
			ts := httptest.NewServer(s)
			t.Cleanup(ts.Close)

			code, body := do(t, s, "POST", "/v1/campaigns", strings.TrimSuffix(distCampaignJSON, "}")+fmt.Sprintf(`,"mode":%q}`, m))
			if code != http.StatusAccepted {
				t.Fatalf("submit: status %d %v", code, body)
			}
			id := body["id"].(string)

			startWorkers(t, ts.URL+"/v1/campaigns/"+id, 2).Wait()
			waitJob(t, s, id, stateDone)

			code, dsBody := do(t, s, "GET", "/v1/campaigns/"+id+"/dataset", "")
			if code != http.StatusOK {
				t.Fatalf("dataset: status %d", code)
			}
			if got := dsBody["raw"].(string); got != wantCSV.String() {
				t.Fatalf("distributed dataset differs from direct inject.Run (%d vs %d bytes)", len(got), wantCSV.Len())
			}

			// A straggler's span submission after completion is acked as a
			// duplicate, not an error — the worker can exit clean.
			var ack inject.SpanReply
			code, raw := postMsg(t, s, "/v1/campaigns/"+id+"/spans", &inject.SpanSubmit{Worker: "late", Digest: id, LeaseID: 99,
				Span: inject.Span{Lo: 0, Hi: 2}, Outcomes: make([]lockstep.Outcome, 2)})
			decodeReply(t, code, raw, &ack)
			if !ack.Duplicate {
				t.Fatalf("late span ack: %+v; want duplicate", ack)
			}

			// And a late lease request gets a clean LeaseDone.
			var lease inject.LeaseReply
			code, raw = postMsg(t, s, "/v1/campaigns/"+id+"/leases", &inject.LeaseRequest{Worker: "late", Digest: id})
			decodeReply(t, code, raw, &lease)
			if lease.Status != inject.LeaseDone {
				t.Fatalf("late lease reply: %+v; want LeaseDone", lease)
			}
		})
	}
}

// TestDistributorMatchesDirect covers the lockstep-inject -distribute
// topology in-process: a standalone Distributor coordinator, one joined
// worker, byte-identical result.
func TestDistributorMatchesDirect(t *testing.T) {
	_, wantCSV, _ := testFixture(t)
	co, err := inject.NewCoordinator(trainingCampaign(), inject.DistConfig{LeaseSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewDistributor(co))
	t.Cleanup(ts.Close)

	// The wrong campaign digest in the URL is a structured 404.
	resp, err := http.Post(ts.URL+"/v1/campaigns/bogus/leases", "application/json",
		strings.NewReader(`{"worker":"w","digest":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus campaign: status %d, want 404", resp.StatusCode)
	}

	startWorkers(t, ts.URL+"/v1/campaigns/"+co.Digest(), 1).Wait()
	if err := co.WaitDone(nil); err != nil {
		t.Fatal(err)
	}
	ds, _, err := co.Result()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantCSV) {
		t.Fatal("distributor dataset differs from direct inject.Run")
	}
}

// TestWorkerRetriesOverload: a worker that meets a full limiter retries
// the 429 as it would a 5xx instead of exiting, and resends a refused
// span commit instead of dropping the span. On either host the only
// limiter slot is held for 300 ms as the worker joins, and again as it
// commits its first span. The worker must finish, the dataset must
// match a direct run, and server.requests must count one lease and one
// span answered 200 for each span the worker landed.
func TestWorkerRetriesOverload(t *testing.T) {
	_, wantCSV, _ := testFixture(t)

	serve := newTestServer(t, func(o *Options) { o.LeaseSize, o.MaxInFlight = 32, 1 })
	code, body := do(t, serve, "POST", "/v1/campaigns", distCampaignJSON)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)
	// Every lease the worker asks for is then granted, none is a wait.
	for start := time.Now(); serve.jobs.get(id).coordinator() == nil; time.Sleep(time.Millisecond) {
		if time.Since(start) > 30*time.Second {
			t.Fatal("the distributed job never started its coordinator")
		}
	}

	co, err := inject.NewCoordinator(trainingCampaign(), inject.DistConfig{LeaseSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewDistributor(co).(*Server)
	coord.limiter = make(chan struct{}, 1)

	hosts := []struct {
		name    string
		s       *Server
		dataset func(t *testing.T) []byte
	}{
		{"lockstep-serve", serve, func(t *testing.T) []byte {
			waitJob(t, serve, id, stateDone)
			code, body := do(t, serve, "GET", "/v1/campaigns/"+id+"/dataset", "")
			if code != http.StatusOK {
				t.Fatalf("dataset: status %d", code)
			}
			return []byte(body["raw"].(string))
		}},
		{"coordinator", coord, func(t *testing.T) []byte {
			if err := co.WaitDone(nil); err != nil {
				t.Fatal(err)
			}
			ds, _, err := co.Result()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ds.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
	}
	for _, h := range hosts {
		t.Run(h.name, func(t *testing.T) {
			ok := func(route string) *telemetry.Counter {
				return h.s.reg.Counter("server.requests", telemetry.L("route", route), telemetry.L("status", "200"))
			}
			leases0, spans0, throttled0 := ok("campaign-lease").Value(), ok("campaign-span").Value(), h.s.throttled.Value()
			ts := httptest.NewServer(h.s)
			t.Cleanup(ts.Close)
			hold := func() {
				h.s.limiter <- struct{}{}
				time.AfterFunc(300*time.Millisecond, func() { <-h.s.limiter })
			}

			// gate holds the worker's first span until the slot is held
			// again, so that span's commit meets the full limiter.
			gate := &sync.Mutex{}
			gate.Lock()
			hold()
			var st WorkerStats
			done := make(chan error, 1)
			go func() {
				var err error
				st, err = RunWorker(context.Background(), WorkerOptions{
					URL: ts.URL + "/v1/campaigns/" + id, Name: "w", InjectWorkers: 1, gate: gate,
				})
				done <- err
			}()
			for start := time.Now(); ok("campaign-lease").Value() == leases0; time.Sleep(time.Millisecond) {
				if time.Since(start) > 30*time.Second {
					t.Fatal("the worker never got its first lease")
				}
			}
			hold()
			gate.Unlock()
			if err := <-done; err != nil {
				t.Fatalf("worker: %v (stats %+v)", err, st)
			}
			if n := h.s.throttled.Value() - throttled0; n < 2 {
				t.Fatalf("the worker met the full limiter %d times, want at least 2", n)
			}
			if !bytes.Equal(h.dataset(t), wantCSV) {
				t.Fatal("dataset differs from direct inject.Run")
			}
			leases, spans := ok("campaign-lease").Value()-leases0, ok("campaign-span").Value()-spans0
			if leases != int64(st.Spans) || spans != int64(st.Spans) || st.Expired != 0 {
				t.Fatalf("server.requests counts %d leases and %d spans answered 200; the worker landed %d spans (%d expired)",
					leases, spans, st.Spans, st.Expired)
			}
		})
	}
}

// TestDistributedEndpointErrors pins the structured error envelope on
// the lease and span paths: stable codes, right statuses. A body that
// does not decode, and a submission no campaign state could accept, is a
// 400 bad_request — never a 5xx, which a worker would retry.
func TestDistributedEndpointErrors(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.LeaseSize = 32
		o.LeaseTTL = time.Millisecond // expire leases nearly instantly
	})
	code, body := do(t, s, "POST", "/v1/campaigns", distCampaignJSON)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)
	leases, spans := "/v1/campaigns/"+id+"/leases", "/v1/campaigns/"+id+"/spans"

	// Acquire a lease directly (waiting out the coordinator's startup).
	var granted inject.LeaseReply
	for deadline := time.Now().Add(30 * time.Second); ; {
		code, raw := postMsg(t, s, leases, &inject.LeaseRequest{Worker: "w", Digest: id})
		decodeReply(t, code, raw, &granted)
		if granted.Status == inject.LeaseGranted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	total := granted.Total

	// Let the 1ms TTL lapse, then have another worker trigger the expiry
	// sweep and take over the span.
	time.Sleep(20 * time.Millisecond)
	code, raw := postMsg(t, s, leases, &inject.LeaseRequest{Worker: "thief", Digest: id})
	if code != http.StatusOK {
		t.Fatalf("second lease: status %d %s", code, raw)
	}

	// The original worker's commit now lands on an expired, re-issued
	// lease over an uncovered span: 409 lease_expired.
	n := granted.Span.Hi - granted.Span.Lo
	code, raw = postMsg(t, s, spans, &inject.SpanSubmit{Worker: "w", Digest: id, LeaseID: granted.LeaseID, Span: granted.Span,
		Outcomes: make([]lockstep.Outcome, n)})
	if code != http.StatusConflict || envelopeOf(t, raw)["code"] != "lease_expired" {
		t.Fatalf("expired commit: %d %s, want 409 lease_expired", code, raw)
	}

	// span returns a submission over the granted span with mut applied.
	span := func(mut func(*inject.SpanSubmit)) *inject.SpanSubmit {
		sub := &inject.SpanSubmit{Worker: "w", Digest: id, LeaseID: granted.LeaseID, Span: granted.Span,
			Outcomes: make([]lockstep.Outcome, n)}
		mut(sub)
		return sub
	}
	long := strings.Repeat("w", 257)
	cases := []struct {
		name       string
		path       string
		payload    any
		status     int
		errCode    string
		checkField string
	}{
		{"lease wrong digest", leases, &inject.LeaseRequest{Worker: "w", Digest: "0123456789abcdef"},
			http.StatusConflict, "fingerprint_mismatch", "digest"},
		{"span wrong digest", spans, span(func(s *inject.SpanSubmit) { s.Digest = "0123456789abcdef" }),
			http.StatusConflict, "fingerprint_mismatch", "digest"},
		{"lease garbage body", leases, "not a lease request", http.StatusBadRequest, "bad_request", ""},
		{"span garbage body", spans, "not a span submission", http.StatusBadRequest, "bad_request", ""},
		{"lease unknown field", leases, `{"worker":"w","digest":"` + id + `","records":[]}`,
			http.StatusBadRequest, "bad_request", ""},
		// Lease length is the coordinator's alone: a worker build that
		// still asks for its own is refused, not silently resized.
		{"lease asks for a length", leases, `{"worker":"w","digest":"` + id + `","want":4}`,
			http.StatusBadRequest, "bad_request", ""},
		{"lease trailing data", leases, `{"worker":"w","digest":"` + id + `"} {}`,
			http.StatusBadRequest, "bad_request", ""},
		{"lease trailing brace", leases, `{"worker":"w","digest":"` + id + `"}}`,
			http.StatusBadRequest, "bad_request", ""},
		{"lease long worker name", leases, &inject.LeaseRequest{Worker: long, Digest: id},
			http.StatusBadRequest, "bad_request", ""},
		{"lease body too large", leases, `{"worker":"` + strings.Repeat("w", maxLeaseBody) + `"}`,
			http.StatusBadRequest, "bad_request", ""},
		{"span outside plan", spans, span(func(s *inject.SpanSubmit) {
			s.Span = inject.Span{Lo: 0, Hi: total + 1}
			s.Outcomes = make([]lockstep.Outcome, total+1)
		}), http.StatusBadRequest, "bad_request", ""},
		{"span outcome count mismatch", spans, span(func(s *inject.SpanSubmit) { s.Outcomes = s.Outcomes[1:] }),
			http.StatusBadRequest, "bad_request", ""},
		{"span detect cycle at horizon", spans, span(func(s *inject.SpanSubmit) {
			s.Outcomes[0] = lockstep.Outcome{Detected: true, DetectCycle: 3000, DSR: 1}
		}), http.StatusBadRequest, "bad_request", ""},
		{"span undetected with DSR", spans, span(func(s *inject.SpanSubmit) { s.Outcomes[0].DSR = 1 }),
			http.StatusBadRequest, "bad_request", ""},
		{"span long worker name", spans, span(func(s *inject.SpanSubmit) { s.Worker = long }),
			http.StatusBadRequest, "bad_request", ""},
		{"span binary body", spans, "lkdw\x01\x03", http.StatusBadRequest, "bad_request", ""},
		{"lease unknown campaign", "/v1/campaigns/ffffffffffffffff/leases",
			&inject.LeaseRequest{Worker: "w", Digest: "ffffffffffffffff"},
			http.StatusNotFound, "unknown_job", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := postMsg(t, s, tc.path, tc.payload)
			e := envelopeOf(t, raw)
			if code != tc.status || e["code"] != tc.errCode {
				t.Fatalf("got %d %s, want %d %s", code, raw, tc.status, tc.errCode)
			}
			if tc.checkField != "" && e["field"] != tc.checkField {
				t.Fatalf("error field %v, want %s", e["field"], tc.checkField)
			}
		})
	}
}

// heldWriter is a ResponseWriter whose first Write closes writing and
// then blocks until release is closed.
type heldWriter struct {
	*httptest.ResponseRecorder
	writing, release chan struct{}
	once             sync.Once
}

func (w *heldWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.writing)
		<-w.release
	})
	return w.ResponseRecorder.Write(p)
}

// TestSlowSpanReplyKeepsProgress: a distributed job's progress is its
// coordinator's merged count, however slowly the span replies are
// written. The campaign's nine spans are leased to one worker, and the
// first is committed through a ResponseWriter that holds the reply. The
// job must count that span while its reply is held, and must still
// report done equal to total once the other eight have landed, the job
// has finished and the held reply has been written.
func TestSlowSpanReplyKeepsProgress(t *testing.T) {
	ds, _, _ := testFixture(t)
	s := newTestServer(t, func(o *Options) { o.LeaseSize = 32 })
	code, body := do(t, s, "POST", "/v1/campaigns", distCampaignJSON)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)
	leases, spans := "/v1/campaigns/"+id+"/leases", "/v1/campaigns/"+id+"/spans"

	// Lease every span: the coordinator answers wait before it starts and
	// once all are leased.
	var granted []inject.LeaseReply
	for deadline := time.Now().Add(30 * time.Second); ; {
		var reply inject.LeaseReply
		code, raw := postMsg(t, s, leases, &inject.LeaseRequest{Worker: "w", Digest: id})
		decodeReply(t, code, raw, &reply)
		if reply.Status == inject.LeaseGranted {
			granted = append(granted, reply)
			continue
		}
		if len(granted) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(granted) != 9 {
		t.Fatalf("%d spans leased, want 9", len(granted))
	}
	// submit commits a span with the outcomes of the direct run's rows.
	submit := func(reply inject.LeaseReply) *inject.SpanSubmit {
		sub := &inject.SpanSubmit{Worker: "w", Digest: id, LeaseID: reply.LeaseID, Span: reply.Span}
		for _, r := range ds.Records[reply.Span.Lo:reply.Span.Hi] {
			sub.Outcomes = append(sub.Outcomes, lockstep.Outcome{Detected: r.Detected, DetectCycle: r.DetectCycle,
				DSR: r.DSR, Converged: r.Converged, Failed: r.Failed})
		}
		return sub
	}
	progress := func() (string, int) {
		code, body := do(t, s, "GET", "/v1/campaigns/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status: %d %v", code, body)
		}
		return body["state"].(string), int(body["done"].(float64))
	}

	first, err := json.Marshal(submit(granted[0]))
	if err != nil {
		t.Fatal(err)
	}
	held := &heldWriter{ResponseRecorder: httptest.NewRecorder(),
		writing: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(held.release) }) }
	defer release() // on a failure, too
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.ServeHTTP(held, httptest.NewRequest("POST", spans, bytes.NewReader(first)))
	}()
	select {
	case <-held.writing:
	case <-time.After(30 * time.Second):
		t.Fatal("the first span's reply was never written")
	}
	n := granted[0].Span.Hi - granted[0].Span.Lo
	if state, done := progress(); state != stateRunning || done != n {
		t.Errorf("with the first span merged and its reply held: %s, done %d, want running, done %d", state, done, n)
	}

	for _, reply := range granted[1:] {
		code, raw := postMsg(t, s, spans, submit(reply))
		if code != http.StatusOK {
			t.Fatalf("span %+v: status %d %s", reply.Span, code, raw)
		}
	}
	waitJob(t, s, id, stateDone)
	release()
	<-served
	if held.Code != http.StatusOK {
		t.Fatalf("held span commit: status %d %s", held.Code, held.Body)
	}
	if state, done := progress(); state != stateDone || done != granted[0].Total {
		t.Fatalf("after the held reply: %s, done %d, want done, done %d", state, done, granted[0].Total)
	}
}

// TestLeaseOnLocalCampaign: the distributed endpoints on a campaign
// submitted without distribute:true answer 409 not_distributed while it
// runs (and leases/spans are honored once done — see the lifecycle test).
func TestLeaseOnLocalCampaign(t *testing.T) {
	s := newTestServer(t, nil)
	// Big enough not to finish before the assertions below.
	code, body := do(t, s, "POST", "/v1/campaigns",
		`{"kernels":["ttsprk"],"run_cycles":12000,"flop_stride":2,"seed":11}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)

	code, raw := postMsg(t, s, "/v1/campaigns/"+id+"/leases", &inject.LeaseRequest{Worker: "w", Digest: id})
	if code != http.StatusConflict || envelopeOf(t, raw)["code"] != "not_distributed" {
		t.Fatalf("lease on local campaign: %d %s, want 409 not_distributed", code, raw)
	}
	code, raw = postMsg(t, s, "/v1/campaigns/"+id+"/spans", &inject.SpanSubmit{Worker: "w", Digest: id, LeaseID: 1,
		Span: inject.Span{Lo: 0, Hi: 1}, Outcomes: make([]lockstep.Outcome, 1)})
	if code != http.StatusConflict || envelopeOf(t, raw)["code"] != "not_distributed" {
		t.Fatalf("span on local campaign: %d %s, want 409 not_distributed", code, raw)
	}
}

// TestSubmitForeignCheckpointRejected: submitting a campaign whose data
// directory holds a checkpoint from a different schedule is refused at
// submission time with 409 config_mismatch (previously this surfaced
// only when the job ran).
func TestSubmitForeignCheckpointRejected(t *testing.T) {
	var dir string
	s := newTestServer(t, func(o *Options) { dir = o.DataDir })

	// The ID the submission will get.
	cfg := trainingCampaign()
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	id := fp.Digest()

	// Plant a checkpoint from a different schedule under that ID.
	foreign := cfg
	foreign.Seed = 999
	foreign.CheckpointPath = filepath.Join(dir, id+".ck")
	foreign.CheckpointEvery = 1
	if _, err := inject.Run(foreign); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(foreign.CheckpointPath); err != nil {
		t.Fatal(err)
	}

	code, body := do(t, s, "POST", "/v1/campaigns", campaignJSON)
	e := apiErrOf(t, body)
	if code != http.StatusConflict || e["code"] != "config_mismatch" {
		t.Fatalf("foreign checkpoint submit: %d %v, want 409 config_mismatch", code, body)
	}
	if e["field"] == nil || e["field"] == "" {
		t.Fatalf("config_mismatch without the offending field: %v", e)
	}
}

// TestDistributedRestartResume: a drained server with a half-merged
// distributed campaign resumes it on restart from the checkpoint, and
// the final dataset is byte-identical to a direct run.
func TestDistributedRestartResume(t *testing.T) {
	_, wantCSV, _ := testFixture(t)
	dir := t.TempDir()
	_, _, table := testFixture(t)

	s1, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New(), LeaseSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	code, body := do(t, s1, "POST", "/v1/campaigns",
		`{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":24,"seed":9,"distribute":true,"checkpoint_every":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)

	// One worker merges part of the campaign, then the server drains.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	url := ts1.URL + "/v1/campaigns/" + id
	client := &http.Client{Timeout: 10 * time.Second}
	var runner *inject.SpanRunner
	merged := 0
	for merged < 3 {
		reply, err := leaseOnce(ctx, client, url, &inject.LeaseRequest{Worker: "w", Digest: id})
		if err != nil {
			t.Fatal(err)
		}
		if reply.Status != inject.LeaseGranted {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if runner == nil {
			rcfg, err := reply.FP.Config()
			if err != nil {
				t.Fatal(err)
			}
			rcfg.Workers = 1
			if runner, err = inject.NewSpanRunner(rcfg); err != nil {
				t.Fatal(err)
			}
		}
		outcomes, st, err := runner.Run(reply.Span)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spanOnce(ctx, client, url, &inject.SpanSubmit{
			Worker: "w", Digest: id, LeaseID: reply.LeaseID, Span: reply.Span,
			Pruned: st.Pruned, OracleChecked: st.OracleChecked, Outcomes: outcomes,
		}); err != nil {
			t.Fatal(err)
		}
		merged++
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Restart on the same directory: the job is adopted, the coordinator
	// resumes from the checkpoint, and a worker finishes it.
	s2, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New(), LeaseSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s2.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	startWorkers(t, ts2.URL+"/v1/campaigns/"+id, 1).Wait()
	waitJob(t, s2, id, stateDone)

	code, dsBody := do(t, s2, "GET", "/v1/campaigns/"+id+"/dataset", "")
	if code != http.StatusOK {
		t.Fatalf("dataset: status %d", code)
	}
	if got := dsBody["raw"].(string); !bytes.Equal([]byte(got), wantCSV) {
		t.Fatal("resumed distributed dataset differs from direct inject.Run")
	}
}
