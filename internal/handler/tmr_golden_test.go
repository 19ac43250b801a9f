package handler

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lockstep/internal/lockstep"
	"lockstep/internal/units"
	"lockstep/internal/workload"
)

// TestPrintTMRTimelineGolden pins the rendered reaction timelines of the
// voted-TMR flow — the mode a tmr campaign's records feed — against
// testdata/tmr_timelines.golden: a predicted-soft forward recovery, a
// located permanent fault (erring CPU removed from the vote), and a
// hard-looking transient that pays the STL scan before recovering.
// Regenerate with -update.
func TestPrintTMRTimelineGolden(t *testing.T) {
	tmr, err := lockstep.NewTMR(workload.ByName("ttsprk"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tmr.Step()
	}
	h := testHandler()
	cases := []struct {
		title      string
		vote       lockstep.VoteResult
		faultyUnit int
		hard       bool
	}{
		{"soft PFU flip on CPU 1, signature known: forward recovery",
			lockstep.VoteResult{Diverged: true, DSR: 1 << 20, Erring: 1}, 0, false},
		{"hard LSU stuck-at on CPU 2: diagnosed, vote degraded to dual",
			lockstep.VoteResult{Diverged: true, DSR: 1 << 3, Erring: 2}, int(units.LSU), true},
		{"soft IMC flip with a hard-looking signature: STL scan, then recovery",
			lockstep.VoteResult{Diverged: true, DSR: 1 << 2, Erring: 0}, 0, false},
	}

	var buf bytes.Buffer
	for _, c := range cases {
		re := h.handleTMR(tmr, c.vote, "k", c.faultyUnit, c.hard)
		fmt.Fprintf(&buf, "== %s ==\n", c.title)
		re.PrintTimeline(&buf)
		fmt.Fprintln(&buf)
	}

	golden := filepath.Join("testdata", "tmr_timelines.golden")
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
		t.Fatalf("TMR timeline format drifted from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
