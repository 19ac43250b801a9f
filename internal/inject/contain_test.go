package inject

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
	"lockstep/internal/workload"
)

// counterTotal reads a global counter, summed over its labels, without
// creating it (monotone across campaigns in one process, so tests measure
// deltas).
func counterTotal(name string) int64 {
	var n int64
	for _, c := range telemetry.Default.Snapshot().Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// containConfig is ckConfig on the -no-prune oracle path: the containment
// tests poison specific plan indices through testHook, which only fires
// for experiments that are actually simulated by a worker — static
// pruning would dissolve the target site and leave the test vacuous.
func containConfig() Config {
	cfg := ckConfig()
	cfg.NoPrune = true
	return cfg
}

// TestPanicContainment: a deliberately poisoned experiment must not kill
// the campaign — it is retried once, then recorded as a Failed row, while
// every other experiment's record stays exactly as in a clean run. Run at
// several worker counts so -race also sees the containment path.
func TestPanicContainment(t *testing.T) {
	clean, err := Run(containConfig())
	if err != nil {
		t.Fatal(err)
	}
	poisonIdx := clean.Len() / 2
	plan, err := containConfig().Plan()
	if err != nil {
		t.Fatal(err)
	}
	poison := plan[poisonIdx]

	for _, workers := range []int{1, runtime.NumCPU()} {
		before := counterTotal("inject.experiment_failures")
		var attempts atomic.Int32
		cfg := containConfig()
		cfg.Workers = workers
		cfg.testHook = func(e Experiment, _ *lockstep.Outcome) {
			if e == poison {
				attempts.Add(1)
				panic("deliberately poisoned experiment")
			}
		}
		ds, st, err := RunStats(cfg)
		if err != nil {
			t.Fatalf("workers=%d: poisoned campaign aborted: %v", workers, err)
		}
		if n := attempts.Load(); n != 2 {
			t.Fatalf("workers=%d: poisoned experiment attempted %d times, want 2 (one retry)", workers, n)
		}
		if ds.Len() != clean.Len() {
			t.Fatalf("workers=%d: poisoned campaign produced %d records, want %d", workers, ds.Len(), clean.Len())
		}
		if st.Failures != 1 {
			t.Fatalf("workers=%d: Stats.Failures = %d, want 1", workers, st.Failures)
		}
		if got := counterTotal("inject.experiment_failures") - before; got != 1 {
			t.Fatalf("workers=%d: inject.experiment_failures grew by %d, want 1", workers, got)
		}
		for i, r := range ds.Records {
			if i == poisonIdx {
				if !r.Failed || r.Detected || r.Converged {
					t.Fatalf("workers=%d: poisoned record = %+v, want Failed-only", workers, r)
				}
				continue
			}
			if r != clean.Records[i] {
				t.Fatalf("workers=%d: record %d disturbed by a neighbouring panic:\nclean:    %+v\npoisoned: %+v",
					workers, i, clean.Records[i], r)
			}
		}
	}
}

// TestPanicRetryRecovers: a transient panic (first attempt only) must be
// retried on fresh scratch and produce the normal record, with no Failed
// row and no failure count.
func TestPanicRetryRecovers(t *testing.T) {
	clean, err := Run(containConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := containConfig().Plan()
	if err != nil {
		t.Fatal(err)
	}
	flaky := plan[3]

	var mu sync.Mutex
	tripped := false
	cfg := containConfig()
	cfg.testHook = func(e Experiment, _ *lockstep.Outcome) {
		if e != flaky {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if !tripped {
			tripped = true
			panic("transient harness fault")
		}
	}
	ds, st, err := RunStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tripped {
		t.Fatal("test hook never fired")
	}
	if st.Failures != 0 {
		t.Fatalf("Stats.Failures = %d, want 0 (retry should have recovered)", st.Failures)
	}
	for i := range clean.Records {
		if ds.Records[i] != clean.Records[i] {
			t.Fatalf("record %d differs after a retried panic: %+v vs %+v", i, ds.Records[i], clean.Records[i])
		}
	}
}

// TestOracleAbort: when the simulated outcome of an oracle-sampled pruned
// site contradicts the static prediction, neither a local campaign nor a
// distributed span ships outcomes, and both errors name the flop, even
// when a cancel has stopped the call first.
func TestOracleAbort(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 2
	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	goldens := map[string]*lockstep.Golden{}
	target := -1
	for i, e := range plan {
		g := goldens[e.Kernel]
		if g == nil {
			if g, err = lockstep.NewGolden(workload.ByName(e.Kernel), cfg.RunCycles, cfg.RunCycles/16); err != nil {
				t.Fatal(err)
			}
			goldens[e.Kernel] = g
		}
		if _, ok := g.PruneMode(e.injection(), cfg.Mode); ok && oracleSampled(cfg.Seed, e) {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no oracle-sampled pruned site in the plan")
	}
	victim := plan[target]
	cfg.testHook = func(e Experiment, out *lockstep.Outcome) {
		if e == victim {
			*out = lockstep.Outcome{Detected: true, DetectCycle: e.Cycle, DSR: 1}
		}
	}
	wantErr := func(who string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "pruning oracle mismatch") ||
			!strings.Contains(err.Error(), cpu.FlopName(victim.Flop)) {
			t.Fatalf("%s: err = %v, want an oracle mismatch naming %s", who, err, cpu.FlopName(victim.Flop))
		}
	}

	ds, _, err := RunStats(cfg)
	wantErr("RunStats", err)
	if ds != nil {
		t.Fatal("RunStats returned a dataset despite the oracle mismatch")
	}

	r, err := NewSpanRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, _, err := r.Run(Span{Lo: target, Hi: min(target+16, r.Total())})
	wantErr("SpanRunner.Run", err)
	if outcomes != nil {
		t.Fatal("SpanRunner.Run returned outcomes despite the oracle mismatch")
	}

	// A mismatch found after another worker stopped the call for a cancel
	// is still the call's error, not ErrCanceled.
	var late *SpanRunner
	canceled := cfg
	canceled.testHook = func(e Experiment, out *lockstep.Outcome) {
		if e == victim {
			late.en.fail(ErrCanceled)
			*out = lockstep.Outcome{Detected: true, DetectCycle: e.Cycle, DSR: 1}
		}
	}
	if late, err = NewSpanRunner(canceled); err != nil {
		t.Fatal(err)
	}
	_, _, err = late.Run(Span{Lo: target, Hi: target + 1})
	wantErr("SpanRunner.Run stopped by a cancel first", err)
}
