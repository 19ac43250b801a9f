package inject

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"lockstep/internal/telemetry"
)

// TestTotalReportsUnknownKernel is the regression test for Total()
// silently returning 0: a config that cannot run must surface the
// normalize error instead.
func TestTotalReportsUnknownKernel(t *testing.T) {
	cfg := smallConfig()
	cfg.Kernels = []string{"nosuchkernel"}
	n, err := cfg.Total()
	if err == nil {
		t.Fatal("Total accepted an unknown kernel")
	}
	if n != 0 {
		t.Fatalf("Total = %d alongside an error, want 0", n)
	}
	// Run and Plan must fail with the same class of error.
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown kernel")
	}
	if _, err := cfg.Plan(); err == nil {
		t.Fatal("Plan accepted an unknown kernel")
	}
	// A valid config still reports its exact experiment count.
	good := smallConfig()
	n, err = good.Total()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("Total = %d for a valid config", n)
	}
}

// outcomeCounts sums the default registry's campaign outcome counters
// (they are monotone across campaigns in one process, so tests measure
// deltas).
func outcomeCounts() (sum, detected int64) {
	for _, c := range telemetry.Default.Snapshot().Counters {
		if c.Name != "inject.outcomes" {
			continue
		}
		sum += c.Value
		if c.Labels["outcome"] == "detected" {
			detected += c.Value
		}
	}
	return sum, detected
}

// TestCampaignTelemetryAccounting: every experiment of a campaign lands
// in exactly one outcome counter, and the detected count matches the
// dataset's manifested subset.
func TestCampaignTelemetryAccounting(t *testing.T) {
	sumBefore, detBefore := outcomeCounts()
	cfg := smallConfig()
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sumAfter, detAfter := outcomeCounts()
	if got, want := sumAfter-sumBefore, int64(ds.Len()); got != want {
		t.Fatalf("outcome counters grew by %d, want %d (one per experiment)", got, want)
	}
	if got, want := detAfter-detBefore, int64(ds.Manifested().Len()); got != want {
		t.Fatalf("detected counters grew by %d, want %d", got, want)
	}
}

// TestCampaignPhaseTimers: a campaign reports the wall time of its plan
// and the workers' busy time building goldens, pruning and simulating in
// Stats, in its summary line, in a job manifest's JSON, and as the
// inject.phase_*_ms gauges. The plan precedes everything else, so it
// takes at most Elapsed; the workers interleave the other three, so each
// is at most Elapsed × Workers.
func TestCampaignPhaseTimers(t *testing.T) {
	_, st, err := RunStats(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	phases := []struct {
		name string
		d    time.Duration
	}{
		{"plan", st.PlanTime}, {"golden", st.GoldenTime},
		{"prune", st.PruneTime}, {"simulate", st.SimulateTime},
	}
	gauges := map[string]int64{}
	for _, g := range telemetry.Default.Snapshot().Gauges {
		gauges[g.Name] = g.Value
	}
	line := st.String()
	for _, p := range phases {
		if p.d <= 0 {
			t.Errorf("%s phase took %v", p.name, p.d)
		}
		limit := st.Elapsed * time.Duration(st.Workers)
		if p.name == "plan" {
			limit = st.Elapsed
		}
		if p.d > limit {
			t.Errorf("%s phase took %v, more than %v in a campaign of %v on %d workers", p.name, p.d, limit, st.Elapsed, st.Workers)
		}
		if !strings.Contains(line, p.name+" ") {
			t.Errorf("summary %q does not name the %s phase", line, p.name)
		}
		if got, ok := gauges["inject.phase_"+p.name+"_ms"]; !ok || got != p.d.Milliseconds() {
			t.Errorf("gauge inject.phase_%s_ms = %d (published %v), want %d", p.name, got, ok, p.d.Milliseconds())
		}
	}
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(js, &back); err != nil || back != st {
		t.Fatalf("Stats JSON round trip (the job manifest's stats) lost fields: %s", js)
	}
}

// TestCampaignTelemetryByKernelAndKind: each experiment lands in the
// outcome counter and detection-latency histogram of its own kernel and
// fault kind, which the workers find from the plan index alone.
func TestCampaignTelemetryByKernelAndKind(t *testing.T) {
	type key struct{ kernel, kind, outcome string }
	counts := func() (map[key]int64, map[key]int64) {
		out, lat := map[key]int64{}, map[key]int64{}
		snap := telemetry.Default.Snapshot()
		for _, c := range snap.Counters {
			if c.Name == "inject.outcomes" {
				out[key{c.Labels["kernel"], c.Labels["kind"], c.Labels["outcome"]}] = c.Value
			}
		}
		for _, h := range snap.Histograms {
			if h.Name == "inject.detect_latency" {
				lat[key{h.Labels["kernel"], h.Labels["kind"], "detected"}] = h.Count
			}
		}
		return out, lat
	}
	cfg := smallConfig()
	cfg.FlopStride = 48
	cfg.InjectionsPerFlopKind = 2
	outBefore, latBefore := counts()
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outAfter, latAfter := counts()
	want := map[key]int64{}
	for _, r := range ds.Records {
		outcome := "escaped"
		switch {
		case r.Failed:
			outcome = "failed"
		case r.Detected:
			outcome = "detected"
		case r.Converged:
			outcome = "converged"
		}
		want[key{r.Kernel, r.Kind.String(), outcome}]++
	}
	for k, n := range want {
		if got := outAfter[k] - outBefore[k]; got != n {
			t.Errorf("inject.outcomes%+v grew by %d, want %d", k, got, n)
		}
		if k.outcome != "detected" {
			continue
		}
		if got := latAfter[k] - latBefore[k]; got != n {
			t.Errorf("inject.detect_latency{%s %s} grew by %d observations, want %d", k.kernel, k.kind, got, n)
		}
	}
}
