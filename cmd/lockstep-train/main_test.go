package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockstep/internal/clitest"
	"lockstep/internal/inject"
)

func init() { clitest.Register(main) }

func TestMain(m *testing.M) { clitest.Dispatch(m) }

func campaignFile(t *testing.T) string {
	t.Helper()
	ds, err := inject.Run(inject.Config{
		Kernels:               []string{"ttsprk"},
		RunCycles:             6000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            8,
		Seed:                  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.csv")
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

func TestTrainCLI(t *testing.T) {
	path := campaignFile(t)
	for _, gran := range []int{7, 13} {
		var out bytes.Buffer
		if err := run(&out, path, gran, 0, 0.8, 1, 5, ""); err != nil {
			t.Fatalf("gran %d: %v", gran, err)
		}
		for _, want := range []string{"trained", "held-out type accuracy", "most-populated entries"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("gran %d: report missing %q:\n%s", gran, want, out.String())
			}
		}
	}
	var out bytes.Buffer
	img := filepath.Join(t.TempDir(), "table.bin")
	if err := run(&out, path, 7, 3, 0.8, 1, 0, img); err != nil {
		t.Fatalf("top-3: %v", err)
	}
	if !strings.Contains(out.String(), "wrote table image") {
		t.Fatalf("no table image confirmation:\n%s", out.String())
	}
	if fi, err := os.Stat(img); err != nil || fi.Size() == 0 {
		t.Fatalf("table image not written: %v", err)
	}
	checkTopKLines(t, out.String(), 3)

	// A top-1 table stores one unit per entry: no other K can differ.
	out.Reset()
	if err := run(&out, path, 7, 1, 0.8, 1, 0, ""); err != nil {
		t.Fatalf("top-1: %v", err)
	}
	checkTopKLines(t, out.String(), 1)
}

// checkTopKLines checks that a report of a top-k table (k <= 3) prints
// the held-out location accuracy once for each K up to k, and for no
// other K.
func checkTopKLines(t *testing.T, report string, k int) {
	t.Helper()
	for K := 1; K <= 13; K++ {
		want := 0
		if K <= k {
			want = 1
		}
		if got := strings.Count(report, fmt.Sprintf("(top-%d)", K)); got != want {
			t.Fatalf("top-%d table: the report has %d top-%d lines, want %d:\n%s", k, got, K, want, report)
		}
	}
}

func TestTrainCLIRejectsBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", 7, 0, 0.8, 1, 0, ""); err == nil {
		t.Fatal("missing -data accepted")
	}
	if err := run(&out, "/nonexistent.csv", 7, 0, 0.8, 1, 0, ""); err == nil {
		t.Fatal("missing file accepted")
	}
	path := campaignFile(t)
	if err := run(&out, path, 9, 0, 0.8, 1, 0, ""); err == nil {
		t.Fatal("bad granularity accepted")
	}
}

// TestCLIExitStatus runs the real binary: a training run exits 0 with
// the report on stdout; missing -data exits 1 with the error prefix.
func TestCLIExitStatus(t *testing.T) {
	path := campaignFile(t)
	res := clitest.Exec(t, "-data", path, "-gran", "7")
	if res.Code != 0 {
		t.Fatalf("exit %d, stderr: %s", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "trained") {
		t.Fatalf("stdout missing training report:\n%s", res.Stdout)
	}
	res = clitest.Exec(t)
	if res.Code != 1 || !strings.Contains(res.Stderr, "lockstep-train:") {
		t.Fatalf("missing -data: exit %d, stderr %q", res.Code, res.Stderr)
	}
}
