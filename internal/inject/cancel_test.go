package inject

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"lockstep/internal/lockstep"
	"lockstep/internal/workload"
)

// cancelConfig is a campaign small enough to finish fast but large
// enough that a mid-run cancel reliably leaves work behind.
func cancelConfig() Config {
	return Config{
		Kernels:               []string{"ttsprk"},
		RunCycles:             4000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            8,
		Seed:                  11,
	}
}

// TestCancelThenResumeIdenticalDataset is the graceful-drain contract
// lockstep-serve relies on: a campaign canceled mid-run returns
// ErrCanceled, persists a final checkpoint of everything it completed,
// and a Resume run finishes it with a dataset byte-identical to an
// uninterrupted run. The cancel lands a third of the way through, or
// while a worker builds the second kernel's golden: after the first
// kernel's work at one worker, and at two workers usually while the
// first golden is still being built, since a waiting worker builds the
// second ahead of need.
func TestCancelThenResumeIdenticalDataset(t *testing.T) {
	cases := []struct {
		name    string
		kernels []string
		workers int
		// duringBuild cancels while the golden of kernels[1] is built;
		// otherwise the cancel comes from Progress.
		duringBuild bool
	}{
		{"progress", []string{"ttsprk"}, 2, false},
		{"golden build, 1 worker", []string{"ttsprk", "rspeed"}, 1, true},
		{"golden build, 2 workers", []string{"ttsprk", "rspeed"}, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := cancelConfig()
			ref.Kernels = tc.kernels
			refDS, err := Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := refDS.WriteCSV(&want); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "ck.lsc")
			cancel := make(chan struct{})
			var fired atomic.Bool
			cfg := ref
			cfg.CheckpointPath = path
			cfg.CheckpointEvery = 8
			cfg.Workers = tc.workers
			cfg.Cancel = cancel
			if tc.duringBuild {
				build := newGolden
				t.Cleanup(func() { newGolden = build })
				newGolden = func(k *workload.Kernel, cycles, snap int) (*lockstep.Golden, error) {
					if k.Name == tc.kernels[1] && fired.CompareAndSwap(false, true) {
						close(cancel)
					}
					return build(k, cycles, snap)
				}
			} else {
				cfg.Progress = func(done, total int) {
					// Cancel a third of the way through, exactly once.
					if done >= total/3 && fired.CompareAndSwap(false, true) {
						close(cancel)
					}
				}
			}

			ds, st, err := RunStats(cfg)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled campaign returned %v, want ErrCanceled", err)
			}
			if ds != nil {
				t.Fatal("canceled campaign returned a (partial) dataset")
			}
			switch {
			case st.Experiments >= refDS.Len():
				t.Fatalf("canceled campaign completed all %d experiments", st.Experiments)
			case !tc.duringBuild && st.Experiments <= 0:
				t.Fatalf("canceled campaign completed %d of %d experiments, want a strict mid-point", st.Experiments, refDS.Len())
			case tc.duringBuild && tc.workers == 1 && st.Experiments != refDS.Len()/2:
				t.Fatalf("canceled while building the second golden after %d experiments, want the first kernel's %d", st.Experiments, refDS.Len()/2)
			}

			// The final checkpoint must cover exactly the completed
			// experiments, in the bytes Encode writes.
			ck := readCanonicalCheckpoint(t, path)
			if ck.DoneCount() != st.Experiments {
				t.Fatalf("checkpoint covers %d experiments, stats say %d completed", ck.DoneCount(), st.Experiments)
			}

			res := ref
			res.CheckpointPath = path
			res.Resume = true
			resDS, resSt, err := RunStats(res)
			if err != nil {
				t.Fatal(err)
			}
			if resSt.Restored != st.Experiments {
				t.Fatalf("resume restored %d experiments, want %d", resSt.Restored, st.Experiments)
			}
			var got bytes.Buffer
			if err := resDS.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("canceled+resumed dataset differs from uninterrupted run")
			}
		})
	}
}

// TestResumeStatsAcrossDrivers: a checkpointed campaign canceled mid-run,
// with Failed rows on both sides of the cut, resumes once through RunStats
// and once through a Coordinator whose SpanRunners carry the same fault
// hook. Both drivers keep their rows in a ledger, so they must give the
// same dataset and the same counts, and Failures must count every Failed
// row of the dataset, the restored ones included.
func TestResumeStatsAcrossDrivers(t *testing.T) {
	poison := func(e Experiment, _ *lockstep.Outcome) {
		if e.Cycle%16 == 0 {
			panic("poisoned experiment")
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.lsc")
	cancel := make(chan struct{})
	var fired atomic.Bool
	cfg := cancelConfig()
	cfg.Workers = 1
	cfg.testHook = poison
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 8
	cfg.Cancel = cancel
	cfg.Progress = func(done, total int) {
		if done >= total/3 && fired.CompareAndSwap(false, true) {
			close(cancel)
		}
	}
	if _, _, err := RunStats(cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled campaign returned %v, want ErrCanceled", err)
	}
	ck := readCanonicalCheckpoint(t, path)
	restoredFailed := 0
	for _, r := range ck.Records {
		if r.Failed {
			restoredFailed++
		}
	}
	// Each driver resumes from its own copy: a resume rewrites its
	// checkpoint.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	coPath := filepath.Join(dir, "co.lsc")
	if err := os.WriteFile(coPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res := cancelConfig()
	res.Workers = 2
	res.testHook = poison
	res.CheckpointPath = path
	res.Resume = true
	ds, st, err := RunStats(res)
	if err != nil {
		t.Fatal(err)
	}
	res.CheckpointPath = coPath
	co, err := NewCoordinator(res, DistConfig{LeaseSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	drainCampaign(t, co, res, "a", "b")
	if err := co.WaitDone(nil); err != nil {
		t.Fatal(err)
	}
	coDS, coSt, err := co.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, ds), csvBytes(t, coDS)) {
		t.Fatal("the coordinator's resumed dataset differs from RunStats'")
	}

	failed := 0
	for _, r := range ds.Records {
		if r.Failed {
			failed++
		}
	}
	if restoredFailed == 0 || failed == restoredFailed {
		t.Fatalf("%d Failed rows, %d of them restored: want Failed rows on both sides of the cut", failed, restoredFailed)
	}
	type counts struct{ Experiments, Restored, Failures, Pruned, OracleChecked int }
	of := func(s Stats) counts { return counts{s.Experiments, s.Restored, s.Failures, s.Pruned, s.OracleChecked} }
	if got, want := of(st), of(coSt); got != want {
		t.Fatalf("RunStats counts %+v, the coordinator's %+v", got, want)
	}
	if got := of(st); got.Experiments != ds.Len() || got.Restored != ck.DoneCount() || got.Failures != failed || got.Pruned == 0 {
		t.Fatalf("counts %+v, want %d experiments, %d restored, %d Failed and some pruned", got, ds.Len(), ck.DoneCount(), failed)
	}
}

// readCanonicalCheckpoint reads the checkpoint at path and checks that
// its file holds exactly what Encode writes for its contents: the
// campaign's checkpointer encodes the rows of its done prefix once and
// the rest at every write.
func readCanonicalCheckpoint(t *testing.T, path string) *Checkpoint {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := ck.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), data) {
		t.Fatal("the campaign's checkpoint file differs from Encode of its contents")
	}
	return ck
}

// TestCancelBeforeStart: a cancel that fires before any experiment is
// dispatched still drains cleanly and leaves a resumable (empty)
// checkpoint behind.
func TestCancelBeforeStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.lsc")
	cancel := make(chan struct{})
	close(cancel)
	cfg := cancelConfig()
	cfg.CheckpointPath = path
	cfg.Cancel = cancel

	_, st, err := RunStats(cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	// Workers may have raced a handful of experiments in before the
	// cancel was observed; all of them must be in the checkpoint.
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.DoneCount() != st.Experiments {
		t.Fatalf("checkpoint covers %d, stats say %d", ck.DoneCount(), st.Experiments)
	}

	res := cancelConfig()
	res.CheckpointPath = path
	res.Resume = true
	ds, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := res.Total(); ds.Len() != want {
		t.Fatalf("resumed dataset has %d records, want %d", ds.Len(), want)
	}
}

// TestCancelAfterLastProgress: a cancel that arrives from the final
// Progress callback, when every experiment has been handed out, must not
// turn a finished campaign into ErrCanceled. Only an undispatched index
// makes a campaign canceled.
func TestCancelAfterLastProgress(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		cancel := make(chan struct{})
		cfg := cancelConfig()
		cfg.Workers = workers
		cfg.Cancel = cancel
		cfg.Progress = func(done, total int) {
			if done == total {
				close(cancel)
			}
		}
		ds, st, err := RunStats(cfg)
		if err != nil {
			t.Fatalf("workers=%d: campaign canceled after its last experiment returned %v", workers, err)
		}
		if want, _ := cfg.Total(); ds.Len() != want || st.Experiments != want {
			t.Fatalf("workers=%d: dataset has %d records (stats %d), want %d", workers, ds.Len(), st.Experiments, want)
		}
	}
}

// TestConfigErrorShape pins the typed validation error both the CLI and
// the lockstep-serve API surface: the offending Config field is named
// machine-readably, and Error() embeds it.
func TestConfigErrorShape(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"unknown kernel", func(c *Config) { c.Kernels = []string{"nosuch"} }, "Kernels"},
		{"resume without checkpoint", func(c *Config) { c.Resume = true }, "Resume"},
		{"more intervals than run cycles", func(c *Config) { c.Intervals = c.RunCycles + 1 }, "Intervals"},
		{"run cycles past the limit", func(c *Config) { c.RunCycles = maxRunCycles + 1 }, "RunCycles"},
		{"experiment count past the limit", func(c *Config) { c.InjectionsPerFlopKind = 1_000_000_000 }, "InjectionsPerFlopKind"},
		{"experiment count overflows int", func(c *Config) { c.InjectionsPerFlopKind = 9_000_000_000_000_000_000 }, "InjectionsPerFlopKind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cancelConfig()
			tc.mut(&cfg)
			_, err := cfg.Total()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Total returned %v (%T), want *ConfigError", err, err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
			if !bytes.Contains([]byte(ce.Error()), []byte(tc.field)) {
				t.Fatalf("ConfigError.Error() %q does not name the field", ce.Error())
			}
			if _, err := Run(cfg); !errors.As(err, &ce) {
				t.Fatalf("Run returned %v, want the same *ConfigError", err)
			}
		})
	}
}
