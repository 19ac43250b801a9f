package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// mini shrinks a workload's campaign to one kernel and every 97th flop, so
// the self-test runs every stage in seconds.
func mini(w workloadSpec) workloadSpec {
	w.campaign.kernels = []string{"ttsprk"}
	w.campaign.stride = 97
	if w.campaign.checkpointEvery > 0 {
		w.campaign.checkpointEvery = 16
	}
	return w
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

func mustPin(t *testing.T, c campaignSpec, seed int64) pin {
	t.Helper()
	p, err := computePin(c, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWorkloadsReportEveryMetric runs every workload at minimal size,
// traced, and checks that no operation fails and that the untraced and
// traced results carry exactly the metrics BENCHMARK.json declares, with
// its units.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	e2e, layers := readBenchmarkJSON(t)
	for _, w := range workloads {
		w := mini(w)
		t.Run(w.name, func(t *testing.T) {
			const seed = 7
			dir := t.TempDir()
			camp, err := campaignStage(w, seed, time.Millisecond, dir, newTracer(), mustPin(t, w.campaign, seed))
			if err != nil {
				t.Fatal(err)
			}
			serve, err := serveStage(w, seed, time.Second, dir, newTracer(), nil)
			if err != nil {
				t.Fatal(err)
			}
			reports := map[string]*stageReport{stageCampaign: camp, stageServe: serve}
			for stage, rep := range reports {
				if rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("%s stage: %d of %d operations failed: %v", stage, rep.Failed, rep.Attempted, rep.Errors)
				}
			}
			rss := map[string]float64{stageCampaign: 1, stageServe: 1}
			for _, c := range []struct {
				traced bool
				want   []declared
			}{{false, e2e}, {true, layers}} {
				got, err := resultMetrics(w, reports, rss, c.traced)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(c.want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json declares %d", c.traced, len(got), len(c.want))
				}
				for _, d := range c.want {
					if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", c.traced, d.Name, m, d.Unit)
					}
				}
			}
		})
	}
}

// TestChecksFire proves the output checks count failed operations: a
// wrong pinned digest fails every campaign run, and a server whose answers
// are tampered with fails the tampered requests.
func TestChecksFire(t *testing.T) {
	const seed = 3
	w := mini(workloads[0])
	dir := t.TempDir()
	bad := mustPin(t, w.campaign, seed)
	bad.digest = strings.Repeat("0", 64)
	rep, err := campaignStage(w, seed, time.Millisecond, dir, nil, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted < minCampaignRuns+1 || rep.Failed != rep.Attempted {
		t.Errorf("wrong pinned digest: %d of %d campaign runs failed, want all", rep.Failed, rep.Attempted)
	}

	var n atomic.Int64
	tamper := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The set-up's first predict passes; then every tenth answer
			// has one byte changed.
			if r.URL.Path != "/v1/predict" || n.Add(1)%10 != 0 {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			body[len(body)/2] ^= 0x20
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	rep, err = serveStage(w, seed, time.Second, dir, nil, tamper)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Failed*5 > rep.Attempted {
		t.Errorf("tampered answers: %d of %d requests failed, want about a tenth", rep.Failed, rep.Attempted)
	}
	if p95 := rep.Metrics["predict_p95_ms"].Value; p95 < millis(failedLatency) {
		t.Errorf("predict_p95_ms = %v with a tenth of requests failed, want it past any limit", p95)
	}
}
