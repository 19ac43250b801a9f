package inject

import (
	"bytes"
	"io"
	"path/filepath"
	"sync/atomic"
	"testing"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
)

// invarianceConfig is a trimmed Small-scale campaign: the same three
// kernels the experiments.Small scale uses, strided so the serial +
// workers=4 double run stays fast under -race.
func invarianceConfig() Config {
	return Config{
		Kernels:               []string{"ttsprk", "rspeed", "matrix"},
		RunCycles:             8000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            24,
		Seed:                  1,
	}
}

// TestWorkerCountInvariance is the campaign's core determinism contract:
// a serial run and a workers=4 run of the same config produce
// byte-identical datasets, including after a CSV round-trip through
// internal/dataset. Run under -race this also exercises the shared-golden
// concurrency of the worker pool.
func TestWorkerCountInvariance(t *testing.T) {
	serial := invarianceConfig()
	serial.Workers = 1
	a, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}

	sharded := invarianceConfig()
	sharded.Workers = 4
	b, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}

	if a.Len() != b.Len() {
		t.Fatalf("dataset lengths differ: serial=%d workers=4:%d", a.Len(), b.Len())
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between worker counts:\nserial: %+v\nworkers=4: %+v",
				i, a.Records[i], b.Records[i])
		}
	}

	// Byte-identical on disk too: serialize both and compare, then round-trip
	// one through ReadCSV and re-serialize.
	var bufA, bufB bytes.Buffer
	if err := a.WriteCSV(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("CSV serializations differ between worker counts")
	}
	rt, err := dataset.ReadCSV(bytes.NewReader(bufB.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var bufRT bytes.Buffer
	if err := rt.WriteCSV(&bufRT); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufRT.Bytes()) {
		t.Fatal("CSV round-trip through dataset.ReadCSV not byte-identical")
	}
}

// TestPrunedMatchesUnpruned is the pruning determinism contract: a
// campaign with static fault-equivalence pruning enabled (the default)
// produces a dataset byte-identical to the -no-prune differential-oracle
// path, across different worker counts, while actually pruning (and
// oracle-sampling) a meaningful share of the plan. This is the campaign-
// level complement of lockstep's TestPruneSoundness: that test proves
// per-site predictions against the Replayer; this one proves the whole
// dataset pipeline — record rendering, telemetry ordering, progress and
// checkpoint bits included — is unchanged by the fast path.
func TestPrunedMatchesUnpruned(t *testing.T) {
	pruned := invarianceConfig()
	pruned.Kernels = []string{"ttsprk", "rspeed"}
	pruned.FlopStride = 36
	pruned.Workers = 4
	dsP, stP, err := RunStats(pruned)
	if err != nil {
		t.Fatal(err)
	}
	if stP.Pruned == 0 {
		t.Fatal("campaign with pruning enabled pruned nothing")
	}
	if stP.OracleChecked == 0 {
		t.Fatal("runtime differential oracle sampled no pruned sites")
	}

	unpruned := pruned
	unpruned.NoPrune = true
	unpruned.Workers = 2
	dsU, stU, err := RunStats(unpruned)
	if err != nil {
		t.Fatal(err)
	}
	if stU.Pruned != 0 || stU.OracleChecked != 0 {
		t.Fatalf("-no-prune run reports pruning stats: %+v", stU)
	}

	var bufP, bufU bytes.Buffer
	if err := dsP.WriteCSV(&bufP); err != nil {
		t.Fatal(err)
	}
	if err := dsU.WriteCSV(&bufU); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufP.Bytes(), bufU.Bytes()) {
		for i := range dsP.Records {
			if dsP.Records[i] != dsU.Records[i] {
				t.Fatalf("record %d differs:\npruned:   %+v\nunpruned: %+v",
					i, dsP.Records[i], dsU.Records[i])
			}
		}
		t.Fatal("CSV serializations differ between pruned and unpruned runs")
	}
}

// TestRunStatsReporting: throughput accounting is populated and consistent
// with the executed campaign.
func TestRunStatsReporting(t *testing.T) {
	cfg := invarianceConfig()
	cfg.Kernels = []string{"ttsprk"}
	cfg.FlopStride = 64
	cfg.Workers = 2
	ds, st, err := RunStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Experiments != ds.Len() {
		t.Fatalf("stats count %d != dataset length %d", st.Experiments, ds.Len())
	}
	if st.Workers != 2 {
		t.Fatalf("stats workers = %d, want 2", st.Workers)
	}
	if st.Elapsed <= 0 {
		t.Fatalf("non-positive elapsed %v", st.Elapsed)
	}
	if st.PerSec <= 0 {
		t.Fatalf("non-positive throughput %f", st.PerSec)
	}
	if s := st.String(); s == "" {
		t.Fatal("empty stats string")
	}
}

// TestProgressMonotonic: with a sharded campaign the Progress callback
// still announces the correct total on every call and sees done climb
// strictly 1..total even though experiments complete out of order across
// workers.
func TestProgressMonotonic(t *testing.T) {
	cfg := invarianceConfig()
	cfg.Kernels = []string{"rspeed"}
	cfg.FlopStride = 32
	cfg.Workers = 4
	want, err := cfg.Total()
	if err != nil {
		t.Fatal(err)
	}
	if want < 8 {
		t.Fatalf("campaign too small (%d) to exercise sharding", want)
	}

	var calls int32
	last := 0
	cfg.Progress = func(done, total int) {
		// Calls are documented as serialized; mutate without extra locking
		// so -race would flag a violation of that contract.
		atomic.AddInt32(&calls, 1)
		if total != want {
			t.Errorf("progress announced total %d, want %d", total, want)
		}
		if done != last+1 {
			t.Errorf("progress done jumped %d -> %d (must be strictly increasing by 1)", last, done)
		}
		last = done
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if int(calls) != want {
		t.Fatalf("progress fired %d times, want %d", calls, want)
	}
	if last != want {
		t.Fatalf("final done = %d, want total %d", last, want)
	}
}

// BenchmarkCampaignDCLS runs the campaign-dcls benchmark workload in
// process (ttsprk, rspeed, puwmod; 6,000 cycles; stride 1; seed 1; all
// CPUs): RunStats and then the dataset CSV, the unit of work perfbench
// times as one campaign.
func BenchmarkCampaignDCLS(b *testing.B) {
	cfg := dclsPlanShape(1)
	exps := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, st, err := RunStats(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
		exps += st.Executed()
	}
	b.ReportMetric(float64(exps)/b.Elapsed().Seconds(), "exp/s")
}

// BenchmarkCampaignTMR runs the campaign-tmr-ckpt benchmark workload in
// process (all 13 kernels; 6,000 cycles; stride 4; TMR; seed 1; all CPUs;
// a checkpoint every 4,096 experiments into a temporary directory):
// RunStats and then the dataset CSV, the unit of work perfbench times as
// one campaign.
func BenchmarkCampaignTMR(b *testing.B) {
	cfg := Config{RunCycles: 6000, FlopStride: 4, Seed: 1, Mode: lockstep.Mode{Kind: lockstep.ModeTMR},
		CheckpointPath: filepath.Join(b.TempDir(), "campaign.ckpt"), CheckpointEvery: 4096}
	exps := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, st, err := RunStats(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
		exps += st.Executed()
	}
	b.ReportMetric(float64(exps)/b.Elapsed().Seconds(), "exp/s")
}
