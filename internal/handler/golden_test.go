package handler

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPrintTimelineGolden pins the human-readable reaction timeline
// format: the rendered flows for a located hard fault, a predicted-soft
// restart, and an unknown-signature (table miss) reaction are compared
// against testdata/timelines.golden. Regenerate with -update.
func TestPrintTimelineGolden(t *testing.T) {
	h := testHandler()
	cases := []struct {
		title string
		rec   dataset.Record
	}{
		{"hard LSU stuck-at-0, signature known", dataset.Record{
			Kernel: "k", Detected: true, DSR: 1 << 3,
			Unit: units.LSU, Fine: units.FineLSU, Kind: lockstep.Stuck0,
		}},
		{"soft PFU flip, signature known", dataset.Record{
			Kernel: "k", Detected: true, DSR: 1 << 20,
			Unit: units.PFU, Fine: units.FinePFU, Kind: lockstep.SoftFlip,
		}},
		{"soft flip, unknown signature (table miss)", dataset.Record{
			Kernel: "k", Detected: true, DSR: 1<<40 | 1<<41,
			Unit: units.DPU, Fine: units.FineDPUALU, Kind: lockstep.SoftFlip,
		}},
	}

	var buf bytes.Buffer
	for _, c := range cases {
		re := h.handleRecord(c.rec)
		fmt.Fprintf(&buf, "== %s ==\n", c.title)
		re.PrintTimeline(&buf)
		fmt.Fprintln(&buf)
	}

	golden := filepath.Join("testdata", "timelines.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/handler/ -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("timeline format drifted from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
