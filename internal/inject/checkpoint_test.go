package inject

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
)

// ckConfig is the reference campaign of the checkpoint tests: one kernel,
// heavily strided, seconds even under -race.
func ckConfig() Config {
	return Config{
		Kernels:               []string{"ttsprk"},
		RunCycles:             4000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            24,
		Seed:                  5,
		Workers:               1,
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	cfg := ckConfig()
	if err := (&cfg).normalize(); err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{
		FP:    cfg.fingerprint(),
		Total: 10,
		Done:  []Span{{0, 3}, {5, 6}, {8, 10}},
		Records: []dataset.Record{
			{Kernel: "ttsprk", Flop: 1, Kind: lockstep.SoftFlip, InjectCycle: 7, Detected: true, DetectCycle: 9, DSR: 0xbeef},
			{Kernel: "ttsprk", Flop: 2, Kind: lockstep.Stuck0, InjectCycle: 8},
			{Kernel: "ttsprk", Flop: 3, Kind: lockstep.Stuck1, InjectCycle: 9, Converged: true},
			{Kernel: "ttsprk", Flop: 4, Kind: lockstep.SoftFlip, InjectCycle: 10, Failed: true},
			{Kernel: "ttsprk", Flop: 5, Kind: lockstep.Stuck0, InjectCycle: 11},
			{Kernel: "ttsprk", Flop: 6, Kind: lockstep.Stuck1, InjectCycle: 12},
		},
	}
	if got, want := ck.DoneCount(), 6; got != want {
		t.Fatalf("DoneCount = %d, want %d", got, want)
	}

	path := filepath.Join(t.TempDir(), "ck.lsc")
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, rt) {
		t.Fatalf("checkpoint round trip mismatch:\nwrote %+v\nread  %+v", ck, rt)
	}
}

// TestResumeConfigMismatch walks every Fingerprint field: resuming with
// any schedule-relevant config change must refuse with a
// ConfigMismatchError naming exactly the differing field.
func TestResumeConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.lsc")
	base := ckConfig()
	base.CheckpointPath = path
	base.CheckpointEvery = 50
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		field  string
		mutate func(*Config)
		// mutateCk, for fingerprint fields that are not Config fields
		// (e.g. the build's trace version), rewrites the checkpoint side
		// of the comparison instead; the case then resumes from the
		// rewritten copy with an unmutated config.
		mutateCk func(*Fingerprint)
	}{
		{field: "Kernels", mutate: func(c *Config) { c.Kernels = []string{"rspeed"} }},
		{field: "RunCycles", mutate: func(c *Config) { c.RunCycles = 4100 }},
		{field: "Intervals", mutate: func(c *Config) { c.Intervals = 32 }},
		{field: "InjectionsPerFlopKind", mutate: func(c *Config) { c.InjectionsPerFlopKind = 2 }},
		{field: "FlopStride", mutate: func(c *Config) { c.FlopStride = 12 }},
		{field: "Kinds", mutate: func(c *Config) { c.Kinds = []lockstep.FaultKind{lockstep.SoftFlip} }},
		{field: "StopLatency", mutate: func(c *Config) { c.StopLatency = 3 }},
		{field: "Seed", mutate: func(c *Config) { c.Seed = 6 }},
		// No Config sets Legacy any more; a checkpoint of a campaign that
		// ran on the dual-CPU oracle still refuses to resume.
		{field: "Legacy", mutateCk: func(fp *Fingerprint) { fp.Legacy = true }},
		{field: "NoPrune", mutate: func(c *Config) { c.NoPrune = true }},
		// A checkpoint from an older trace/pruning generation (or one with
		// no trace_version at all, which decodes as 0) must refuse on this
		// build rather than mix analyses within one dataset.
		{field: "TraceVersion", mutateCk: func(fp *Fingerprint) { fp.TraceVersion = lockstep.TraceVersion - 1 }},
		// A dcls checkpoint must refuse to resume under any other lockstep
		// mode (and vice versa): outcomes are mode-specific, so a silent
		// cross-mode mix would poison the dataset.
		{field: "Mode", mutate: func(c *Config) { c.Mode = lockstep.Mode{Kind: lockstep.ModeSlip, Slip: 3} }},
	}
	// The table must cover the whole fingerprint, so a future field cannot
	// ship without a refusal test.
	if want := reflect.TypeOf(Fingerprint{}).NumField(); len(cases) != want {
		t.Fatalf("mismatch table covers %d fields, Fingerprint has %d", len(cases), want)
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			cfg := ckConfig()
			cfg.CheckpointPath = path
			cfg.Resume = true
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			if tc.mutateCk != nil {
				ck, err := ReadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				tc.mutateCk(&ck.FP)
				rewritten := filepath.Join(t.TempDir(), "ck.lsc")
				if err := WriteCheckpoint(rewritten, ck); err != nil {
					t.Fatal(err)
				}
				cfg.CheckpointPath = rewritten
			}
			_, err := Run(cfg)
			var mismatch *ConfigMismatchError
			if !errors.As(err, &mismatch) {
				t.Fatalf("resume with changed %s: got %v, want ConfigMismatchError", tc.field, err)
			}
			if mismatch.Field != tc.field {
				t.Fatalf("error names field %q, want %q (err: %v)", mismatch.Field, tc.field, err)
			}
		})
	}

	// The unmutated config must still resume cleanly.
	cfg := ckConfig()
	cfg.CheckpointPath = path
	cfg.Resume = true
	if _, err := Run(cfg); err != nil {
		t.Fatalf("resume with identical config refused: %v", err)
	}
}

// TestResumeProducesIdenticalDataset: interrupt a campaign by keeping only
// a prefix of its final checkpoint, resume from it at several worker
// counts, and require the result to be byte-identical to the
// uninterrupted dataset. This is the in-process half of the kill/resume
// equivalence contract (the subprocess SIGKILL half lives in
// cmd/lockstep-inject).
func TestResumeProducesIdenticalDataset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.lsc")

	ref := ckConfig()
	ref.CheckpointPath = path
	refDS, st, err := RunStats(ref)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints < 1 {
		t.Fatalf("campaign wrote %d checkpoints, want >= 1", st.Checkpoints)
	}
	var want bytes.Buffer
	if err := refDS.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	full := readCanonicalCheckpoint(t, path)
	if full.DoneCount() != refDS.Len() {
		t.Fatalf("final checkpoint covers %d of %d experiments", full.DoneCount(), refDS.Len())
	}

	// Truncate the checkpoint to simulate kills at several progress
	// points, including an empty one and an almost-complete one.
	for _, keep := range []int{0, 1, refDS.Len() / 3, refDS.Len() - 1, refDS.Len()} {
		for _, workers := range []int{1, 4} {
			partial := &Checkpoint{FP: full.FP, Total: full.Total}
			if keep > 0 {
				partial.Done = []Span{{0, keep}}
				partial.Records = append([]dataset.Record(nil), full.Records[:keep]...)
			}
			if err := WriteCheckpoint(path, partial); err != nil {
				t.Fatal(err)
			}

			cfg := ckConfig()
			cfg.CheckpointPath = path
			cfg.Resume = true
			cfg.Workers = workers
			ds, st, err := RunStats(cfg)
			if err != nil {
				t.Fatalf("resume from %d/%d at workers=%d: %v", keep, full.Total, workers, err)
			}
			if st.Restored != keep {
				t.Fatalf("restored %d experiments, want %d", st.Restored, keep)
			}
			var got bytes.Buffer
			if err := ds.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("resume from %d/%d at workers=%d is not byte-identical to the uninterrupted run",
					keep, full.Total, workers)
			}
			// The resumed run must leave a complete checkpoint behind.
			after, err := ReadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if after.DoneCount() != full.Total {
				t.Fatalf("checkpoint after resume covers %d/%d", after.DoneCount(), full.Total)
			}
		}
	}
}

// TestResumeRefusesBadCheckpoint: -resume semantics are strict — a
// missing or corrupt checkpoint is a typed error, never a silent restart.
func TestResumeRefusesBadCheckpoint(t *testing.T) {
	dir := t.TempDir()

	cfg := ckConfig()
	cfg.CheckpointPath = filepath.Join(dir, "nonexistent.lsc")
	cfg.Resume = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("resume from a missing checkpoint did not fail")
	}

	// A checkpoint with a flipped byte must fail CRC validation.
	path := filepath.Join(dir, "ck.lsc")
	good := ckConfig()
	good.CheckpointPath = path
	if _, err := Run(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = ckConfig()
	cfg.CheckpointPath = path
	cfg.Resume = true
	_, err = Run(cfg)
	var ckErr *CheckpointError
	if !errors.As(err, &ckErr) {
		t.Fatalf("resume from a corrupt checkpoint: got %v, want CheckpointError", err)
	}

	// Resume without a checkpoint path is a config error.
	cfg = ckConfig()
	cfg.Resume = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("Resume without CheckpointPath accepted")
	}
}

// telemetryGaugeMap flattens the default registry's unlabeled gauges.
func telemetryGaugeMap(t *testing.T) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, g := range telemetry.Default.Snapshot().Gauges {
		if len(g.Labels) == 0 {
			out[g.Name] = g.Value
		}
	}
	return out
}

// TestCheckpointProgressTelemetry: the checkpoint layer surfaces its
// progress through the default registry.
func TestCheckpointProgressTelemetry(t *testing.T) {
	dir := t.TempDir()
	cfg := ckConfig()
	// Checkpoint cadence needs a steady flow of worker completions; the
	// statically-pruned majority completes in one synchronous burst whose
	// kicks coalesce into a single write, so measure on the oracle path.
	cfg.NoPrune = true
	cfg.CheckpointPath = filepath.Join(dir, "ck.lsc")
	cfg.CheckpointEvery = 25
	ds, st, err := RunStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Kicks coalesce while a write is in flight, so the exact count is
	// load-dependent — but at least one periodic write plus the final one
	// must land, and never more than one per CheckpointEvery plus final.
	if max := ds.Len()/25 + 1; st.Checkpoints < 2 || st.Checkpoints > max {
		t.Fatalf("wrote %d checkpoints, want 2..%d", st.Checkpoints, max)
	}
	snap := telemetryGaugeMap(t)
	if got := snap["inject.checkpoint_done"]; got != int64(ds.Len()) {
		t.Fatalf("inject.checkpoint_done = %d, want %d", got, ds.Len())
	}
	if got := snap["inject.checkpoint_total"]; got != int64(ds.Len()) {
		t.Fatalf("inject.checkpoint_total = %d, want %d", got, ds.Len())
	}
	if snap["inject.checkpoint_last_unix_ms"] <= 0 {
		t.Fatal("inject.checkpoint_last_unix_ms not set")
	}
}
