// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablation and
// micro-benchmarks of the simulation substrate.
//
// Each experiment benchmark runs its analysis over a shared small-scale
// campaign (built once per process) and reports the headline reproduction
// metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. The campaign scale is intentionally
// small so the suite completes in minutes; use cmd/lockstep-experiments
// -scale default|full for the paper-scale reproduction.
package lockstep_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lockstep/internal/core"
	"lockstep/internal/cpu"
	"lockstep/internal/experiments"
	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
	"lockstep/internal/mem"
	"lockstep/internal/sbist"
	"lockstep/internal/workload"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() { benchCtx, benchErr = experiments.NewContext(experiments.Small, nil) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

// ---- tables -----------------------------------------------------------------

// BenchmarkTable1ManifestationStats regenerates Table I.
func BenchmarkTable1ManifestationStats(b *testing.B) {
	c := benchContext(b)
	var t experiments.Table1
	for i := 0; i < b.N; i++ {
		t = c.Table1()
	}
	b.ReportMetric(100*t.SoftRate.Mean, "softrate%")
	b.ReportMetric(100*t.HardRate.Mean, "hardrate%")
	b.ReportMetric(t.SoftTime.Mean, "softcyc")
	b.ReportMetric(t.HardTime.Mean, "hardcyc")
	b.ReportMetric(float64(t.DistinctSets), "dsrsets")
}

// BenchmarkTable2Latencies regenerates Table II.
func BenchmarkTable2Latencies(b *testing.B) {
	c := benchContext(b)
	var t experiments.Table2
	for i := 0; i < b.N; i++ {
		t = c.Table2()
	}
	b.ReportMetric(t.STL.Mean, "stlmean")
	b.ReportMetric(t.Restart.Mean, "restartmean")
}

// BenchmarkTable3TypeAccuracy regenerates Table III (paper: soft 86%,
// hard 49%, overall 67%).
func BenchmarkTable3TypeAccuracy(b *testing.B) {
	c := benchContext(b)
	var t experiments.Table3
	for i := 0; i < b.N; i++ {
		t = c.Table3()
	}
	b.ReportMetric(100*t.Soft, "soft%")
	b.ReportMetric(100*t.Hard, "hard%")
	b.ReportMetric(100*t.Overall, "overall%")
}

// BenchmarkTable4AreaPower regenerates Table IV (paper: 0.6%/1.8% vs the
// dual-CPU lockstep).
func BenchmarkTable4AreaPower(b *testing.B) {
	c := benchContext(b)
	t := c.Table4()
	for i := 0; i < b.N; i++ {
		t = c.Table4()
	}
	b.ReportMetric(100*t.VsSR5DMR.Area, "area-vs-sr5dmr%")
	b.ReportMetric(100*t.VsSR5DMR.Power, "power-vs-sr5dmr%")
	b.ReportMetric(100*t.VsR5DMR.Area, "area-vs-r5dmr%")
	b.ReportMetric(100*t.VsR5DMR.Power, "power-vs-r5dmr%")
}

// ---- figures ----------------------------------------------------------------

// BenchmarkFig4HardErrorBC regenerates Figure 4 (paper: average BC ~0.39).
func BenchmarkFig4HardErrorBC(b *testing.B) {
	c := benchContext(b)
	var f experiments.FigBC
	for i := 0; i < b.N; i++ {
		f = c.FigUnitBC(true)
	}
	b.ReportMetric(f.AvgBC, "avgBC")
	b.ReportMetric(float64(f.SetSizes), "sets")
}

// BenchmarkFig5SoftErrorBC regenerates Figure 5 (paper: average BC ~0.32).
func BenchmarkFig5SoftErrorBC(b *testing.B) {
	c := benchContext(b)
	var f experiments.FigBC
	for i := 0; i < b.N; i++ {
		f = c.FigUnitBC(false)
	}
	b.ReportMetric(f.AvgBC, "avgBC")
	b.ReportMetric(float64(f.SetSizes), "sets")
}

// BenchmarkFig11ModelComparison7 regenerates Figure 11 (paper: pred-comb
// 65%/64%/39% faster than base-manifest/base-ascending/pred-location-only).
func BenchmarkFig11ModelComparison7(b *testing.B) {
	c := benchContext(b)
	var mc experiments.ModelComparison
	for i := 0; i < b.N; i++ {
		mc = c.Compare(core.Coarse7, sbist.OnChipTableAccess)
	}
	b.ReportMetric(mc.Rows[4].MeanLERT, "comb-lert")
	b.ReportMetric(mc.Rows[4].MeanUnits, "comb-units")
	b.ReportMetric(100*mc.CombVsManifest, "comb-vs-manifest%")
	b.ReportMetric(100*mc.CombVsAscending, "comb-vs-ascending%")
	b.ReportMetric(100*mc.CombVsLocation, "comb-vs-location%")
}

// BenchmarkOnOffChipTable regenerates the Section V-B analysis (paper:
// 0.05% overhead for the off-chip table).
func BenchmarkOnOffChipTable(b *testing.B) {
	c := benchContext(b)
	var o experiments.OnOffChip
	for i := 0; i < b.N; i++ {
		o = c.OnOffChipAnalysis()
	}
	b.ReportMetric(100*(o.CombOff/o.CombOn-1), "comb-offchip-ovh%")
	b.ReportMetric(100*(o.LocOff/o.LocOn-1), "loc-offchip-ovh%")
}

// BenchmarkFig12TopKAccuracy7 regenerates Figure 12 (paper: 70%/85%/95%
// at K=1/2/3).
func BenchmarkFig12TopKAccuracy7(b *testing.B) {
	c := benchContext(b)
	var sw experiments.TopKSweep
	for i := 0; i < b.N; i++ {
		sw = c.SweepTopK(core.Coarse7)
	}
	b.ReportMetric(100*sw.Accuracy[0], "acc-k1%")
	b.ReportMetric(100*sw.Accuracy[1], "acc-k2%")
	b.ReportMetric(100*sw.Accuracy[2], "acc-k3%")
}

// BenchmarkFig13TopKLERT7 regenerates Figure 13 (paper: sweet spot at 3-4
// units with 60-63% speedup vs base-ascending).
func BenchmarkFig13TopKLERT7(b *testing.B) {
	c := benchContext(b)
	var sw experiments.TopKSweep
	for i := 0; i < b.N; i++ {
		sw = c.SweepTopK(core.Coarse7)
	}
	b.ReportMetric(100*sw.Speedup[2], "speedup-k3%")
	b.ReportMetric(100*sw.Speedup[3], "speedup-k4%")
	b.ReportMetric(sw.LERT[3], "lert-k4")
}

// BenchmarkFig14ModelComparison13 regenerates Figure 14 (paper: pred-comb
// 64%/42%/34% at 13 units).
func BenchmarkFig14ModelComparison13(b *testing.B) {
	c := benchContext(b)
	var mc experiments.ModelComparison
	for i := 0; i < b.N; i++ {
		mc = c.Compare(core.Fine13, sbist.OnChipTableAccess)
	}
	b.ReportMetric(mc.Rows[4].MeanLERT, "comb-lert")
	b.ReportMetric(100*mc.CombVsManifest, "comb-vs-manifest%")
	b.ReportMetric(100*mc.CombVsAscending, "comb-vs-ascending%")
	b.ReportMetric(100*mc.CombVsLocation, "comb-vs-location%")
}

// BenchmarkFig15TopKAccuracy13 regenerates Figure 15 (paper: 42% at K=1,
// ~95% by K=7).
func BenchmarkFig15TopKAccuracy13(b *testing.B) {
	c := benchContext(b)
	var sw experiments.TopKSweep
	for i := 0; i < b.N; i++ {
		sw = c.SweepTopK(core.Fine13)
	}
	b.ReportMetric(100*sw.Accuracy[0], "acc-k1%")
	b.ReportMetric(100*sw.Accuracy[6], "acc-k7%")
}

// BenchmarkFig16TopKLERT13 regenerates Figure 16 (paper: sweet spot at 7-8
// units with 36-39% speedup).
func BenchmarkFig16TopKLERT13(b *testing.B) {
	c := benchContext(b)
	var sw experiments.TopKSweep
	for i := 0; i < b.N; i++ {
		sw = c.SweepTopK(core.Fine13)
	}
	b.ReportMetric(100*sw.Speedup[6], "speedup-k7%")
	b.ReportMetric(100*sw.Speedup[7], "speedup-k8%")
}

// BenchmarkHardSoftSpread regenerates the Section III-B statistic (paper:
// hard faults produce 54% more distinct diverged SC sets).
func BenchmarkHardSoftSpread(b *testing.B) {
	c := benchContext(b)
	var sp experiments.Spread
	for i := 0; i < b.N; i++ {
		sp = c.SpreadAnalysis()
	}
	b.ReportMetric(100*sp.MorePct, "hard-more-sets%")
	b.ReportMetric(sp.HardAvgSCs, "hard-avg-scs")
	b.ReportMetric(sp.SoftAvgSCs, "soft-avg-scs")
}

// BenchmarkLBISTComparison evaluates the five reaction models with LBIST
// scan-session latencies instead of STLs (Section III notes the predictor
// serves both BIST styles).
func BenchmarkLBISTComparison(b *testing.B) {
	c := benchContext(b)
	var mc experiments.ModelComparison
	for i := 0; i < b.N; i++ {
		mc = c.CompareLBIST(core.Coarse7, sbist.OffChipTableAccess)
	}
	b.ReportMetric(mc.Rows[4].MeanLERT, "comb-lert")
	b.ReportMetric(100*mc.CombVsAscending, "comb-vs-ascending%")
}

// ---- ablations ---------------------------------------------------------------

// BenchmarkAblationDynamicPredictor compares the static table against the
// Section VII dynamic predictor (the paper argues static suffices because
// errors are rare).
func BenchmarkAblationDynamicPredictor(b *testing.B) {
	c := benchContext(b)
	var a experiments.Ablation
	for i := 0; i < b.N; i++ {
		a = c.AblationDynamic()
	}
	b.ReportMetric(a.StaticLERT, "static-lert")
	b.ReportMetric(a.DynamicLERT, "dynamic-lert")
}

// ---- substrate micro-benchmarks ----------------------------------------------

// BenchmarkCPUSimulation measures the cycle-accurate simulator's
// throughput (cycles simulated per second drive campaign cost).
func BenchmarkCPUSimulation(b *testing.B) {
	k := workload.ByName("ttsprk")
	sys, entry, err := k.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	c := cpu.New(sys, entry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StepCycle()
	}
}

// BenchmarkLockstepPair measures a full lockstep step: two CPUs plus the
// checker comparison.
func BenchmarkLockstepPair(b *testing.B) {
	k := workload.ByName("ttsprk")
	sys, entry, err := k.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	main := cpu.New(sys, entry)
	red := cpu.New(mem.Monitor{Sys: sys}, entry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		main.StepCycle()
		red.StepCycle()
		om := main.State.Outputs()
		or := red.State.Outputs()
		if cpu.Diverge(&om, &or) != 0 {
			b.Fatal("spurious divergence")
		}
	}
}

// injectionBenchSetup builds the shared golden run and a fixed mixed
// injection schedule (all three fault kinds, random flops and cycles), so
// the replay and legacy benchmarks measure the exact same experiments.
func injectionBenchSetup(b *testing.B) (*lockstep.Golden, []lockstep.Injection) {
	b.Helper()
	k := workload.ByName("puwmod")
	g, err := lockstep.NewGolden(k, 6000, 750)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	mix := make([]lockstep.Injection, 512)
	for i := range mix {
		mix[i] = lockstep.Injection{
			Flop:  rng.Intn(cpu.NumFlops()),
			Kind:  lockstep.FaultKind(i % lockstep.NumFaultKinds),
			Cycle: 500 + rng.Intn(5000),
		}
	}
	return g, mix
}

// BenchmarkInjectReplay measures one fault-injection experiment on the
// golden-trace replay path (one CPU stepped per cycle, per-worker scratch
// reuse) — the campaign hot path.
func BenchmarkInjectReplay(b *testing.B) {
	g, mix := injectionBenchSetup(b)
	rep := lockstep.NewReplayer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.InjectMode(g, mix[i%len(mix)], lockstep.Mode{}, lockstep.StopLatency)
	}
}

// BenchmarkInjectLegacy measures the same injection mix on the legacy
// dual-CPU oracle (main + redundant CPU re-simulated, full RAM restore
// per experiment).
func BenchmarkInjectLegacy(b *testing.B) {
	g, mix := injectionBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.InjectLegacyMode(mix[i%len(mix)], lockstep.Mode{}, lockstep.StopLatency)
	}
}

// BenchmarkInjectPruned measures the same injection mix with the static
// fault-equivalence prune consulted first — the campaign's actual
// per-experiment path with pruning enabled: sites the golden run's
// liveness analysis proves masked are recorded in O(1) without
// simulation, the rest fall through to the replayer. The speedup over
// BenchmarkInjectReplay is the prune hit rate times the per-experiment
// replay cost.
func BenchmarkInjectPruned(b *testing.B) {
	g, mix := injectionBenchSetup(b)
	rep := lockstep.NewReplayer()
	pruned := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj := mix[i%len(mix)]
		if _, ok := g.PruneMode(inj, lockstep.Mode{}); ok {
			pruned++
			continue
		}
		rep.InjectMode(g, inj, lockstep.Mode{}, lockstep.StopLatency)
	}
	b.ReportMetric(100*float64(pruned)/float64(b.N), "%pruned")
}

// BenchmarkCampaign measures end-to-end campaign throughput (experiments
// per second) at several worker-pool sizes. The dataset is worker-count-
// invariant, so the sub-benchmarks are directly comparable: on a multicore
// host workers=4 should deliver several times the workers=1 throughput
// (the Default-scale campaign shards the same way, just with more
// experiments per shard).
func BenchmarkCampaign(b *testing.B) {
	pools := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		pools = append(pools, n)
	}
	for _, workers := range pools {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var st inject.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = inject.RunStats(inject.Config{
					Kernels:               []string{"puwmod", "rspeed"},
					RunCycles:             4000,
					Intervals:             64,
					InjectionsPerFlopKind: 1,
					FlopStride:            16,
					Seed:                  int64(i),
					Workers:               workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.PerSec, "exp/s")
		})
	}
}

// BenchmarkPredictorLookup measures the prediction table query path (DSR
// to ordered units), which the error handler executes at reaction time.
func BenchmarkPredictorLookup(b *testing.B) {
	c := benchContext(b)
	table := core.Train(c.DS, core.Coarse7, 0)
	man := c.DS.Manifested()
	if man.Len() == 0 {
		b.Fatal("no errors")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Predict(man.Records[i%man.Len()].DSR)
	}
}

// BenchmarkCheckerCompare measures the checker's per-cycle comparison.
func BenchmarkCheckerCompare(b *testing.B) {
	var s cpu.State
	s.Reset(0)
	a := s.Outputs()
	c := s.Outputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cpu.Diverge(&a, &c) != 0 {
			b.Fatal("diverged")
		}
	}
}

// BenchmarkAblationStopWindow quantifies the checker stop-latency ablation
// (DESIGN.md modelling decision 5): DSR accumulation window vs the
// diverged-SC-set vocabulary and type-prediction accuracy.
func BenchmarkAblationStopWindow(b *testing.B) {
	c := benchContext(b)
	var sw experiments.WindowSweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = c.SweepStopWindow([]int{1, 12})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sw.DistinctSets[0]), "sets-w1")
	b.ReportMetric(float64(sw.DistinctSets[1]), "sets-w12")
	b.ReportMetric(100*sw.OverallAcc[1], "type-acc-w12%")
}
