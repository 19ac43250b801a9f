package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"lockstep/internal/clitest"
	"lockstep/internal/core"
	"lockstep/internal/inject"
	"lockstep/internal/server"
)

func init()                 { clitest.Register(main) }
func TestMain(m *testing.M) { clitest.Dispatch(m) }

// e2eCampaign is the schedule used by the end-to-end tests; the direct
// inject.Run comparison uses the same values.
func e2eCampaign(stride int) inject.Config {
	return inject.Config{
		Kernels:               []string{"ttsprk"},
		RunCycles:             3000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            stride,
		Seed:                  9,
	}
}

func e2eJSON(stride int, extra string) string {
	return fmt.Sprintf(`{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":%d,"seed":9%s}`, stride, extra)
}

// directCSV runs the same campaign in-process and renders its CSV — the
// byte-identity oracle for datasets downloaded over HTTP.
func directCSV(t *testing.T, stride int) []byte {
	t.Helper()
	ds, err := inject.Run(e2eCampaign(stride))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeTableImage trains a table from a small campaign and serializes it
// the way lockstep-train would.
func writeTableImage(t *testing.T, path string) *core.Table {
	t.Helper()
	ds, err := inject.Run(e2eCampaign(24))
	if err != nil {
		t.Fatal(err)
	}
	table := core.Train(ds, core.Coarse7, 0)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return table
}

var addrRe = regexp.MustCompile(`listening on (http://[^\s]+)`)
var versionRe = regexp.MustCompile(`serving table version ([0-9a-f]{16})`)

// servingVersion extracts the table version the binary logged at startup.
func servingVersion(t *testing.T, p *clitest.Proc) string {
	t.Helper()
	out := p.WaitOutput("serving table version", 30*time.Second)
	m := versionRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no serving-version line in output:\n%s", out)
	}
	return m[1]
}

// startServer launches lockstep-serve on a random port and returns its
// base URL.
func startServer(t *testing.T, args ...string) (*clitest.Proc, string) {
	t.Helper()
	p := clitest.Start(t, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	out := p.WaitOutput("listening on http://", 30*time.Second)
	m := addrRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no listen address in output:\n%s", out)
	}
	return p, m[1]
}

// httpJSON performs a request against the live server and decodes the
// JSON response.
func httpJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	if strings.Contains(resp.Header.Get("Content-Type"), "json") {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	} else {
		out["raw"] = string(data)
	}
	return resp.StatusCode, out
}

// pollJob polls the live server's status endpoint until the job reaches
// want (failing fast on "failed").
func pollJob(t *testing.T, base, id, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		code, st := httpJSON(t, "GET", base+"/v1/campaigns/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status poll: %d %v", code, st)
		}
		state := st["state"].(string)
		if state == want {
			return st
		}
		if state == "failed" || time.Now().After(deadline) {
			t.Fatalf("job in state %q (error %v), want %q", state, st["error"], want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeEndToEnd is the full happy path against the real binary:
// start on a random port with a trained table, submit a campaign over
// HTTP, poll it to completion, and verify the downloaded dataset is
// byte-identical to running the same schedule directly with inject.Run.
// Predictions served over HTTP must match the trained table, and SIGTERM
// must exit 0 after a drain.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "table.lspt")
	table := writeTableImage(t, img)

	p, base := startServer(t, "-data", filepath.Join(dir, "jobs"), "-table", img)

	// Submit and run a campaign to completion.
	code, sub := httpJSON(t, "POST", base+"/v1/campaigns", e2eJSON(24, ""))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	id := sub["id"].(string)
	pollJob(t, base, id, "done")

	code, ds := httpJSON(t, "GET", base+"/v1/campaigns/"+id+"/dataset", "")
	if code != http.StatusOK {
		t.Fatalf("dataset: %d", code)
	}
	if got, want := []byte(ds["raw"].(string)), directCSV(t, 24); !bytes.Equal(got, want) {
		t.Fatalf("HTTP dataset (%d bytes) differs from direct inject.Run (%d bytes)", len(got), len(want))
	}

	// Predictions over HTTP match the trained table.
	code, pr := httpJSON(t, "POST", base+"/v1/predict", `{"dsr":"8"}`)
	if code != http.StatusOK {
		t.Fatalf("predict: %d %v", code, pr)
	}
	pred := pr["predictions"].([]any)[0].(map[string]any)
	want := table.Predict(8)
	wantType := "soft"
	if want.Hard {
		wantType = "hard"
	}
	if pred["type"] != wantType || pred["known"].(bool) != want.Known {
		t.Fatalf("served prediction %v, table says type=%s known=%v", pred, wantType, want.Known)
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	p.Signal(syscall.SIGTERM)
	res := p.Wait()
	if res.Code != 0 {
		t.Fatalf("SIGTERM exit code %d\nstderr:\n%s", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stderr, "draining") || !strings.Contains(res.Stderr, "drained; bye") {
		t.Fatalf("no drain messages in stderr:\n%s", res.Stderr)
	}
}

// TestServeSigtermMidJobResumes is the crash-safety contract end to end:
// SIGTERM lands while a campaign runs; the server checkpoints, drains and
// exits 0; a restarted server on the same data directory adopts the job,
// resumes it from the checkpoint, and the final dataset is byte-identical
// to an uninterrupted direct run.
func TestServeSigtermMidJobResumes(t *testing.T) {
	dataDir := t.TempDir()
	// stride 2 keeps the unpruned campaign running for hundreds of
	// milliseconds after the progress poll breaks, so the SIGTERM below
	// reliably lands mid-job rather than racing campaign completion.
	const stride = 2

	// no_prune keeps every experiment on the simulated path: the job runs
	// long enough for SIGTERM to land mid-campaign, and the byte-compare
	// against the pruned directCSV oracle doubles as an end-to-end check
	// of the pruning determinism contract over HTTP.
	p, base := startServer(t, "-data", dataDir)
	code, sub := httpJSON(t, "POST", base+"/v1/campaigns",
		e2eJSON(stride, `,"checkpoint_every":8,"workers":2,"no_prune":true`))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	id := sub["id"].(string)

	// Let it make real progress, then SIGTERM mid-job.
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, st := httpJSON(t, "GET", base+"/v1/campaigns/"+id, "")
		if st["state"].(string) == "done" {
			t.Skip("campaign finished before SIGTERM could land mid-job")
		}
		if st["done"].(float64) >= 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Signal(syscall.SIGTERM)
	res := p.Wait()
	if res.Code != 0 {
		t.Fatalf("SIGTERM exit code %d\nstderr:\n%s", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stderr, "draining") {
		t.Fatalf("no drain message in stderr:\n%s", res.Stderr)
	}
	if _, err := os.Stat(filepath.Join(dataDir, id+".csv")); err == nil {
		t.Fatal("interrupted job left a final dataset; drain should stop before completion")
	}
	if _, err := os.Stat(filepath.Join(dataDir, id+".ck")); err != nil {
		t.Fatalf("interrupted job left no checkpoint: %v", err)
	}

	// Restart on the same directory: the job is adopted and resumed
	// without resubmission.
	_, base2 := startServer(t, "-data", dataDir)
	final := pollJob(t, base2, id, "done")
	if restored := final["restored"].(float64); restored < 16 {
		t.Fatalf("resumed job restored %v experiments, want >= 16", restored)
	}

	code, ds := httpJSON(t, "GET", base2+"/v1/campaigns/"+id+"/dataset", "")
	if code != http.StatusOK {
		t.Fatalf("dataset after resume: %d", code)
	}
	if got, want := []byte(ds["raw"].(string)), directCSV(t, stride); !bytes.Equal(got, want) {
		t.Fatal("kill-and-restart dataset differs from uninterrupted direct run")
	}
}

// postJSON POSTs msg as JSON to the live server and decodes its 200
// reply into out.
func postJSON(t *testing.T, url string, msg, out any) {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, data)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// commitOneLease leases one span of the distributed campaign at url,
// waiting while the job is queued, runs the span in process and commits
// it. It returns the campaign-wide merged count the commit reports.
func commitOneLease(t *testing.T, url string) int {
	t.Helper()
	id := url[strings.LastIndexByte(url, '/')+1:]
	var lease inject.LeaseReply
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		postJSON(t, url+"/leases", &inject.LeaseRequest{Worker: "w", Digest: id}, &lease)
		if lease.Status == inject.LeaseGranted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no lease granted: %+v", lease)
		}
	}
	cfg, err := lease.FP.Config()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := inject.NewSpanRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs, st, err := runner.Run(lease.Span)
	if err != nil {
		t.Fatal(err)
	}
	var ack inject.SpanReply
	postJSON(t, url+"/spans", &inject.SpanSubmit{
		Worker: "w", Digest: id, LeaseID: lease.LeaseID, Span: lease.Span,
		Pruned: st.Pruned, OracleChecked: st.OracleChecked, Outcomes: outs,
	}, &ack)
	return ack.Done
}

// TestServeTrainSwapAcrossRestart is the hot-table-reload contract
// against the real binary: a campaign submitted with "train": true is
// SIGTERMed mid-job before it can train; the restarted server serves the
// old table while it resumes the job; on completion it trains from the
// campaign's dataset and atomically swaps the new version in; and a
// further restart — without the -table flag at all — adopts the trained
// table as the persisted active version. The campaign is distributed and
// the test is its only worker, so it cannot finish before the SIGTERM, nor
// before the restarted server names its table, whatever the timing.
func TestServeTrainSwapAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "table.lspt")
	writeTableImage(t, img)
	dataDir := filepath.Join(dir, "jobs")
	const stride = 24

	p, base := startServer(t, "-data", dataDir, "-table", img, "-lease-size", "16")
	v0 := servingVersion(t, p)

	code, sub := httpJSON(t, "POST", base+"/v1/campaigns",
		e2eJSON(stride, `,"checkpoint_every":8,"distribute":true,"train":true,"train_granularity":13`))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	id := sub["id"].(string)

	// Merge one span of 16 experiments, then SIGTERM: the rest of the
	// campaign waits for a worker.
	if done := commitOneLease(t, base+"/v1/campaigns/"+id); done != 16 {
		t.Fatalf("first span merged %d experiments, want 16", done)
	}
	if _, st := httpJSON(t, "GET", base+"/v1/campaigns/"+id, ""); st["state"] != "running" || st["done"].(float64) != 16 {
		t.Fatalf("job before SIGTERM: %v, want running with 16 done", st)
	}
	p.Signal(syscall.SIGTERM)
	if res := p.Wait(); res.Code != 0 {
		t.Fatalf("SIGTERM exit code %d\nstderr:\n%s", res.Code, res.Stderr)
	}

	// Restart: the old table keeps serving while the adopted job resumes —
	// the startup log names the version before any swap can land.
	p2, base2 := startServer(t, "-data", dataDir, "-table", img)
	if got := servingVersion(t, p2); got != v0 {
		t.Fatalf("restart serves version %s before training completed, want the old table %s", got, v0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := server.RunWorker(ctx, server.WorkerOptions{URL: base2 + "/v1/campaigns/" + id, InjectWorkers: 2}); err != nil {
		t.Fatal(err)
	}

	// The resumed job completes, trains from its own dataset, and swaps.
	final := pollJob(t, base2, id, "done")
	if restored := final["restored"].(float64); restored != 16 {
		t.Fatalf("resumed job restored %v experiments, want 16", restored)
	}
	trained, _ := final["trained_table"].(string)
	if trained == "" {
		t.Fatalf("resumed train:true job finished without a trained table: %v", final)
	}
	if trained == v0 {
		t.Fatal("trained version equals the startup version; the swap is unobservable")
	}
	code, hz := httpJSON(t, "GET", base2+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	hzTable := hz["table"].(map[string]any)
	if hzTable["version"] != trained {
		t.Fatalf("healthz serves %v after train-on-completion, want %s", hzTable["version"], trained)
	}
	code, list := httpJSON(t, "GET", base2+"/v1/tables", "")
	if code != http.StatusOK || list["active"] != trained {
		t.Fatalf("tables list: %d %v, want active %s", code, list, trained)
	}
	if n := len(list["tables"].([]any)); n < 2 {
		t.Fatalf("tables list has %d versions, want both the startup and trained tables", n)
	}
	p2.Signal(syscall.SIGTERM)
	if res := p2.Wait(); res.Code != 0 {
		t.Fatalf("SIGTERM exit code %d\nstderr:\n%s", res.Code, res.Stderr)
	}

	// Final restart with no -table flag: the persisted activation alone
	// decides what serves.
	p3, base3 := startServer(t, "-data", dataDir)
	if got := servingVersion(t, p3); got != trained {
		t.Fatalf("tableless restart serves %s, want the trained table %s", got, trained)
	}
	code, pr := httpJSON(t, "POST", base3+"/v1/predict", `{"dsr":"8"}`)
	if code != http.StatusOK || len(pr["predictions"].([]any)) != 1 {
		t.Fatalf("predict after tableless restart: %d %v", code, pr)
	}
	p3.Signal(syscall.SIGTERM)
	if res := p3.Wait(); res.Code != 0 {
		t.Fatalf("SIGTERM exit code %d\nstderr:\n%s", res.Code, res.Stderr)
	}
}
