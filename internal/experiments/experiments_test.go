package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lockstep/internal/core"
	"lockstep/internal/sbist"
)

var (
	ctxOnce sync.Once
	ctx     *Context
	ctxErr  error
)

// sharedContext runs the Small campaign once for the whole test package.
func sharedContext(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() { ctx, ctxErr = NewContext(Small, nil) })
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return ctx
}

func TestTable1Shape(t *testing.T) {
	c := sharedContext(t)
	t1 := c.Table1()
	if t1.Manifested == 0 {
		t.Fatal("no manifested errors")
	}
	// Shape claims from the paper's Table I: hard manifestation rate mean
	// exceeds soft; hard manifestation time mean exceeds soft.
	if t1.HardRate.Mean <= t1.SoftRate.Mean {
		t.Errorf("hard rate mean (%.2f) should exceed soft (%.2f)",
			t1.HardRate.Mean, t1.SoftRate.Mean)
	}
	if t1.HardTime.Mean <= t1.SoftTime.Mean {
		t.Errorf("hard manifestation time mean (%.0f) should exceed soft (%.0f)",
			t1.HardTime.Mean, t1.SoftTime.Mean)
	}
	if t1.DistinctSets < 10 {
		t.Errorf("only %d distinct diverged SC sets", t1.DistinctSets)
	}
}

func TestTable2Ranges(t *testing.T) {
	c := sharedContext(t)
	t2 := c.Table2()
	// The synthetic STL range must match the paper's published range.
	if t2.STL.Min != 25000 || t2.STL.Max != 700000 {
		t.Errorf("STL range [%0.f, %0.f], want [25000, 700000]", t2.STL.Min, t2.STL.Max)
	}
	if t2.STL.Mean < 150000 || t2.STL.Mean > 190000 {
		t.Errorf("STL mean %.0f outside paper's ~170k", t2.STL.Mean)
	}
	if t2.Restart.Min <= 0 {
		t.Error("restart latencies not measured")
	}
}

func TestTable3TypePrediction(t *testing.T) {
	c := sharedContext(t)
	t3 := c.Table3()
	// Shape claims: soft accuracy well above chance and above hard
	// accuracy; overall between them.
	if t3.Soft < 0.5 {
		t.Errorf("soft type accuracy %.2f below 0.5", t3.Soft)
	}
	if t3.Overall <= 0.5 {
		t.Errorf("overall type accuracy %.2f not better than chance", t3.Overall)
	}
	if t3.TypeBCAvg <= 0 || t3.TypeBCAvg > 1 {
		t.Errorf("type BC average %.2f out of range", t3.TypeBCAvg)
	}
}

func TestTable4Overheads(t *testing.T) {
	c := sharedContext(t)
	t4 := c.Table4()
	// The predictor must be a small fraction of the lockstep processor,
	// and tiny at R5 scale (the paper's <2% claim).
	if t4.VsSR5DMR.Area > 0.10 || t4.VsSR5DMR.Power > 0.10 {
		t.Errorf("predictor overhead vs SR5 DMR too big: %+v", t4.VsSR5DMR)
	}
	if t4.VsR5DMR.Area > 0.02 || t4.VsR5DMR.Power > 0.02 {
		t.Errorf("predictor overhead vs R5-class DMR exceeds paper's 2%%: %+v", t4.VsR5DMR)
	}
	if t4.Predictor.Flops < 62 {
		t.Errorf("predictor flops %d below DSR width", t4.Predictor.Flops)
	}
}

func TestFigures4And5BC(t *testing.T) {
	c := sharedContext(t)
	hard := c.FigUnitBC(true)
	soft := c.FigUnitBC(false)
	// BC in (0, 1): unit signatures are neither identical nor disjoint.
	for _, f := range []FigBC{hard, soft} {
		if f.AvgBC <= 0 || f.AvgBC >= 1 {
			t.Errorf("avg BC %.3f out of open interval", f.AvgBC)
		}
		if f.MinUnit == f.MaxUnit {
			t.Error("degenerate min/max BC units")
		}
	}
	// The key phenomenon: distributions are distinguishable (BC well
	// below 1), which is what makes location prediction work.
	if hard.AvgBC > 0.9 {
		t.Errorf("hard-error unit signatures too similar (BC %.2f)", hard.AvgBC)
	}
}

func TestFig11ModelOrdering(t *testing.T) {
	c := sharedContext(t)
	mc := c.Compare(core.Coarse7, sbist.OnChipTableAccess)
	byName := map[string]float64{}
	for _, r := range mc.Rows {
		if r.N == 0 {
			t.Fatalf("model %s evaluated zero errors", r.Model)
		}
		byName[r.Model] = r.MeanLERT
	}
	// Paper's headline ordering: pred-comb beats every baseline and
	// pred-location-only; pred-location-only beats the static-latency and
	// random baselines (vs base-manifest it can tie within noise at small
	// campaign scale, so that pair is not asserted here).
	for _, base := range []string{"base-random", "base-ascending"} {
		if byName["pred-location-only"] >= byName[base] {
			t.Errorf("pred-location-only (%.0f) not better than %s (%.0f)",
				byName["pred-location-only"], base, byName[base])
		}
	}
	for _, base := range []string{"base-random", "base-ascending", "base-manifest"} {
		if byName["pred-comb"] >= byName[base] {
			t.Errorf("pred-comb (%.0f) not better than %s (%.0f)",
				byName["pred-comb"], base, byName[base])
		}
	}
	if byName["pred-comb"] >= byName["pred-location-only"] {
		t.Errorf("pred-comb (%.0f) not better than pred-location-only (%.0f)",
			byName["pred-comb"], byName["pred-location-only"])
	}
	// Availability claim: pred-comb speedup in the paper's 42-65% band
	// direction (must at least be a large double-digit reduction).
	if mc.CombVsAscending < 0.2 {
		t.Errorf("pred-comb reduction vs base-ascending only %.0f%%", 100*mc.CombVsAscending)
	}
}

func TestFig14FineGranularity(t *testing.T) {
	c := sharedContext(t)
	coarse := c.Compare(core.Coarse7, sbist.OnChipTableAccess)
	fine := c.Compare(core.Fine13, sbist.OnChipTableAccess)
	// Section V-D: finer granularity improves LERT for the prediction
	// models and base-ascending.
	if fine.Rows[4].MeanLERT >= coarse.Rows[4].MeanLERT {
		t.Errorf("fine pred-comb (%.0f) should beat coarse (%.0f)",
			fine.Rows[4].MeanLERT, coarse.Rows[4].MeanLERT)
	}
	if fine.Rows[1].MeanLERT >= coarse.Rows[1].MeanLERT {
		t.Errorf("fine base-ascending (%.0f) should beat coarse (%.0f)",
			fine.Rows[1].MeanLERT, coarse.Rows[1].MeanLERT)
	}
}

func TestLBISTComparison(t *testing.T) {
	c := sharedContext(t)
	mc := c.CompareLBIST(core.Coarse7, sbist.OffChipTableAccess)
	if !mc.LBIST {
		t.Fatal("LBIST flag not set")
	}
	byName := map[string]float64{}
	for _, r := range mc.Rows {
		if r.N == 0 {
			t.Fatalf("model %s evaluated zero errors", r.Model)
		}
		byName[r.Model] = r.MeanLERT
	}
	// The prediction advantage carries over to LBIST diagnosis.
	if byName["pred-comb"] >= byName["base-ascending"] {
		t.Errorf("LBIST pred-comb (%.0f) not better than base-ascending (%.0f)",
			byName["pred-comb"], byName["base-ascending"])
	}
	// p95 is at least the mean for every model.
	for _, r := range mc.Rows {
		if r.P95LERT < r.MeanLERT*0.5 {
			t.Errorf("%s: implausible p95 %.0f vs mean %.0f", r.Model, r.P95LERT, r.MeanLERT)
		}
		if r.MaxLERT < r.P95LERT {
			t.Errorf("%s: max %.0f below p95 %.0f", r.Model, r.MaxLERT, r.P95LERT)
		}
	}
}

func TestOnOffChipNegligible(t *testing.T) {
	c := sharedContext(t)
	o := c.OnOffChipAnalysis()
	for _, pair := range [][2]float64{{o.LocOn, o.LocOff}, {o.CombOn, o.CombOff}} {
		if pair[0] <= 0 {
			t.Fatal("zero LERT")
		}
		if ovh := pair[1]/pair[0] - 1; ovh > 0.01 {
			t.Errorf("off-chip overhead %.3f%% exceeds 1%%", 100*ovh)
		}
	}
}

func TestTopKSweepShape(t *testing.T) {
	c := sharedContext(t)
	for _, gran := range []core.Granularity{core.Coarse7, core.Fine13} {
		sw := c.SweepTopK(gran)
		n := gran.Units()
		if len(sw.K) != n {
			t.Fatalf("sweep has %d points, want %d", len(sw.K), n)
		}
		// Accuracy is monotone non-decreasing in K and reaches 100% at
		// K = all units (the faulty unit is always in the full order).
		for i := 1; i < n; i++ {
			if sw.Accuracy[i]+1e-9 < sw.Accuracy[i-1] {
				t.Errorf("%v: accuracy not monotone at K=%d: %.3f < %.3f",
					gran, i+1, sw.Accuracy[i], sw.Accuracy[i-1])
			}
		}
		if sw.Accuracy[n-1] < 0.999 {
			t.Errorf("%v: full-order accuracy %.3f != 1", gran, sw.Accuracy[n-1])
		}
		if sw.BaseLERT <= 0 {
			t.Error("no base-ascending reference")
		}
	}
}

func TestSpreadDirection(t *testing.T) {
	c := sharedContext(t)
	sp := c.SpreadAnalysis()
	if sp.SoftSets == 0 || sp.HardSets == 0 {
		t.Skip("not enough same-flop detections at small scale")
	}
	// Section III-B: hard errors produce more distinct diverged SC sets.
	if sp.HardSets < sp.SoftSets {
		t.Errorf("hard sets (%d) fewer than soft sets (%d)", sp.HardSets, sp.SoftSets)
	}
}

func TestAblationDynamic(t *testing.T) {
	c := sharedContext(t)
	a := c.AblationDynamic()
	if a.Errors == 0 {
		t.Fatal("no errors in ablation stream")
	}
	if a.StaticLERT <= 0 || a.DynamicLERT <= 0 {
		t.Fatal("degenerate ablation LERTs")
	}
}

func TestUnitBreakdown(t *testing.T) {
	c := sharedContext(t)
	for _, gran := range []core.Granularity{core.Coarse7, core.Fine13} {
		ub := c.Units(gran)
		if len(ub.Names) != gran.Units() {
			t.Fatalf("%v: %d rows", gran, len(ub.Names))
		}
		totalFlops, totalInjected := 0, 0
		for i := range ub.Names {
			totalFlops += ub.Flops[i]
			totalInjected += ub.Soft[i].Injected + ub.Hard[i].Injected
		}
		if totalInjected != c.DS.Len() {
			t.Fatalf("%v: per-unit injected %d != %d records", gran, totalInjected, c.DS.Len())
		}
		var buf bytes.Buffer
		ub.Print(&buf)
		if buf.Len() == 0 {
			t.Fatal("empty breakdown print")
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "default", "full", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

// TestPrintAll exercises every Print path and, with -v, shows the full
// small-scale reproduction.
func TestPrintAll(t *testing.T) {
	c := sharedContext(t)
	var buf bytes.Buffer
	c.Table1().Print(&buf)
	c.Table2().Print(&buf)
	c.Table3().Print(&buf)
	PrintTable4(&buf, c.Table4())
	c.FigUnitBC(true).Print(&buf)
	c.FigUnitBC(false).Print(&buf)
	c.Compare(core.Coarse7, sbist.OnChipTableAccess).Print(&buf)
	c.Compare(core.Fine13, sbist.OnChipTableAccess).Print(&buf)
	c.OnOffChipAnalysis().Print(&buf)
	c.SweepTopK(core.Coarse7).Print(&buf)
	c.SweepTopK(core.Fine13).Print(&buf)
	c.SpreadAnalysis().Print(&buf)
	c.AblationDynamic().Print(&buf)
	if buf.Len() < 2000 {
		t.Fatalf("suspiciously short report (%d bytes)", buf.Len())
	}
	if testing.Verbose() {
		os.Stdout.Write(buf.Bytes())
	}
}

func TestSweepStopWindow(t *testing.T) {
	c := sharedContext(t)
	sw, err := c.SweepStopWindow([]int{1, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Windows) != 2 {
		t.Fatalf("%d windows", len(sw.Windows))
	}
	// The accumulation window grows both the set vocabulary and the
	// average set size.
	if sw.DistinctSets[1] <= sw.DistinctSets[0] {
		t.Errorf("window 12 should produce more distinct sets: %d vs %d",
			sw.DistinctSets[1], sw.DistinctSets[0])
	}
	if sw.AvgSetSize[1] <= sw.AvgSetSize[0] {
		t.Errorf("window 12 should produce larger sets: %.2f vs %.2f",
			sw.AvgSetSize[1], sw.AvgSetSize[0])
	}
	var buf bytes.Buffer
	sw.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print")
	}
}

// TestSweepStopWindowLeavesCheckpoint: the sweep's reduced campaigns
// neither overwrite the checkpoint the scale's config names nor try to
// resume from it.
func TestSweepStopWindowLeavesCheckpoint(t *testing.T) {
	c := *sharedContext(t)
	path := filepath.Join(t.TempDir(), "campaign.lsc")
	want := []byte("the scale campaign's checkpoint")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	c.Scale.Config.CheckpointPath = path
	c.Scale.Config.CheckpointEvery = 1
	for _, resume := range []bool{false, true} {
		c.Scale.Config.Resume = resume
		if _, err := c.SweepStopWindow([]int{12}); err != nil {
			t.Fatalf("resume %v: %v", resume, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("resume %v: the sweep rewrote the scale's checkpoint (%d bytes, %v)", resume, len(got), err)
		}
	}
}

func TestSummaryClaims(t *testing.T) {
	c := sharedContext(t)
	claims := c.Summary()
	if len(claims) < 10 {
		t.Fatalf("only %d claims", len(claims))
	}
	holds := 0
	for _, cl := range claims {
		if cl.Name == "" || cl.Paper == "" || cl.Measured == "" {
			t.Fatalf("incomplete claim: %+v", cl)
		}
		if cl.Holds {
			holds++
		}
	}
	// At small campaign scale at least 80% of the claims must hold.
	if holds*10 < len(claims)*8 {
		t.Fatalf("only %d/%d claims hold", holds, len(claims))
	}
	var buf bytes.Buffer
	PrintSummary(&buf, claims)
	if buf.Len() == 0 {
		t.Fatal("empty summary")
	}
}
