package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockstep/internal/clitest"
	"lockstep/internal/inject"
)

func init() { clitest.Register(main) }

func TestMain(m *testing.M) { clitest.Dispatch(m) }

func shard(t *testing.T, kernel string, seed int64) string {
	t.Helper()
	ds, err := inject.Run(inject.Config{
		Kernels:               []string{kernel},
		RunCycles:             5000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            64,
		Seed:                  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), kernel+".csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMergeDisjointShards(t *testing.T) {
	a := shard(t, "ttsprk", 1)
	b := shard(t, "puwmod", 1)
	merged, st, err := merge([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if st.duplicates != 0 {
		t.Fatalf("%d duplicates in disjoint shards", st.duplicates)
	}
	kernels := map[string]bool{}
	for _, r := range merged.Records {
		kernels[r.Kernel] = true
	}
	if !kernels["ttsprk"] || !kernels["puwmod"] {
		t.Fatal("merged dataset missing a shard's kernel")
	}
}

func TestMergeDropsExactDuplicates(t *testing.T) {
	a := shard(t, "rspeed", 3)
	merged, st, err := merge([]string{a, a})
	if err != nil {
		t.Fatal(err)
	}
	if st.duplicates != merged.Len() {
		t.Fatalf("duplicates %d, want %d", st.duplicates, merged.Len())
	}
}

func TestMergeRejectsConflicts(t *testing.T) {
	a := shard(t, "rspeed", 3)
	// Corrupt a copy: flip one record's detection flag (the detected
	// column) on exactly one line.
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(t.TempDir(), "conflict.csv")
	changed := false
	var out []string
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if !changed && strings.Contains(line, ",true,") {
			line = strings.Replace(line, ",true,", ",false,", 1)
			changed = true
		}
		out = append(out, line)
	}
	if !changed {
		t.Skip("no detected record to corrupt")
	}
	if err := os.WriteFile(b, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := merge([]string{a, b}); err == nil {
		t.Fatal("conflicting shards accepted")
	}
}

// TestCLIExitStatus runs the real binary: merging shards exits 0 and
// reports the shard/record counts; no arguments is a usage error (exit
// 2); an unreadable shard or an output in a missing directory exits 1.
func TestCLIExitStatus(t *testing.T) {
	a := shard(t, "ttsprk", 1)
	b := shard(t, "puwmod", 1)
	out := filepath.Join(t.TempDir(), "merged.csv")
	res := clitest.Exec(t, "-o", out, a, b)
	if res.Code != 0 {
		t.Fatalf("exit %d, stderr: %s", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stderr, "merged 2 shards") {
		t.Fatalf("stderr missing merge summary:\n%s", res.Stderr)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("merged CSV not written: %v", err)
	}

	res = clitest.Exec(t)
	if res.Code != 2 || !strings.Contains(res.Stderr, "usage:") {
		t.Fatalf("no args: exit %d, stderr %q", res.Code, res.Stderr)
	}

	res = clitest.Exec(t, "/nonexistent-shard.csv")
	if res.Code != 1 || !strings.Contains(res.Stderr, "lockstep-merge:") {
		t.Fatalf("bad shard: exit %d, stderr %q", res.Code, res.Stderr)
	}

	// An output that cannot be written exits 1 before any shard is read
	// (the missing shard would fail the merge otherwise) and creates
	// nothing.
	dir := t.TempDir()
	res = clitest.Exec(t, "-o", filepath.Join(dir, "missing", "merged.csv"), a, b, "/nonexistent-shard.csv")
	if res.Code != 1 || !strings.Contains(res.Stderr, "lockstep-merge:") || strings.Contains(res.Stderr, "nonexistent-shard") {
		t.Fatalf("unwritable output: exit %d, stderr %q; want the output error before the shards are read", res.Code, res.Stderr)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("unwritable output left %d entries behind (err %v)", len(entries), err)
	}
}
