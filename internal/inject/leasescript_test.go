package inject

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lockstep/internal/lockstep"
)

// leaseScriptConfig is a three-kernel campaign of 105 plan indices per
// kernel. The script never simulates: it commits all-masked outcomes,
// which Commit accepts for any plan entry.
func leaseScriptConfig() Config {
	return Config{
		Kernels:               []string{"ttsprk", "puwmod", "rspeed"},
		RunCycles:             2000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            64,
		Seed:                  3,
	}
}

// leaseScript drives co through a fixed schedule and writes one line per
// Acquire and Commit call to log. The schedule is a seeded sequence of
// steps: a worker picked at random commits the lease it holds (or, one
// time in seven, abandons it, as a killed worker would), or asks for a
// new one when it holds none; the clock then advances 0-4 s against a
// 10 s lease TTL, so abandoned and slow leases expire and are re-issued.
// A commit only lands while the worker holds its lease, so late commits
// of expired leases are refused or acked as duplicates. The script stops
// once every worker has been told the campaign is done, or after steps
// steps. After every call, check inspects the coordinator.
func leaseScript(t *testing.T, co *Coordinator, now *time.Time, seed int64, workers, steps int, log *bytes.Buffer, check func(string)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	held := make([]*LeaseReply, workers)
	done := make([]bool, workers)
	ndone := 0
	for step := 0; step < steps; step++ {
		w := rng.Intn(workers)
		name := string(rune('a' + w))
		if l := held[w]; l != nil {
			held[w] = nil
			if rng.Intn(7) == 0 {
				fmt.Fprintf(log, "%s abandons #%d\n", name, l.LeaseID)
			} else {
				ack, err := co.Commit(&SpanSubmit{
					Worker: name, Digest: co.Digest(), LeaseID: l.LeaseID, Span: l.Span,
					Outcomes: make([]lockstep.Outcome, l.Span.Hi-l.Span.Lo),
				})
				var lee *LeaseExpiredError
				switch {
				case errors.As(err, &lee):
					fmt.Fprintf(log, "%s commit #%d [%d,%d) expired\n", name, l.LeaseID, l.Span.Lo, l.Span.Hi)
				case err != nil:
					t.Fatalf("step %d: %s commit: %v", step, name, err)
				case ack.Duplicate:
					fmt.Fprintf(log, "%s commit #%d [%d,%d) duplicate done=%d\n", name, l.LeaseID, l.Span.Lo, l.Span.Hi, ack.Done)
				default:
					fmt.Fprintf(log, "%s commit #%d [%d,%d) done=%d\n", name, l.LeaseID, l.Span.Lo, l.Span.Hi, ack.Done)
				}
				check(fmt.Sprintf("step %d: %s commit", step, name))
			}
		} else {
			reply, err := co.Acquire(name, co.Digest())
			if err != nil {
				t.Fatalf("step %d: %s acquire: %v", step, name, err)
			}
			switch reply.Status {
			case LeaseGranted:
				held[w] = reply
				fmt.Fprintf(log, "%s granted #%d [%d,%d)\n", name, reply.LeaseID, reply.Span.Lo, reply.Span.Hi)
			case LeaseDone:
				if !done[w] {
					done[w] = true
					ndone++
				}
				fmt.Fprintf(log, "%s done\n", name)
			default:
				fmt.Fprintf(log, "%s %v\n", name, reply.Status)
			}
			check(fmt.Sprintf("step %d: %s acquire", step, name))
		}
		if ndone == workers {
			return
		}
		*now = now.Add(time.Duration(rng.Intn(5)) * time.Second)
	}
}

// TestLeaseScriptSequence pins the coordinator's lease policy: 16 fixed
// schedules on a three-kernel campaign (1-3 workers, lease sizes 5 to
// 2^19, expiries and re-issues), 12 on a fresh campaign and 4 resumed
// from a checkpoint whose restored spans are scattered across all three
// kernel blocks, must grant exactly the leases recorded in
// testdata/lease_script.golden, call for call. The golden file was
// recorded from the earlier coordinator, whose free spans could straddle
// blocks, so it holds the block-cut free list to that implementation.
// After every call each free span must lie inside one kernel block.
func TestLeaseScriptSequence(t *testing.T) {
	cfg := leaseScriptConfig()
	total, err := cfg.Total()
	if err != nil {
		t.Fatal(err)
	}
	block := total / len(cfg.Kernels)
	var log bytes.Buffer
	newCo := func(cfg Config, size int) (*Coordinator, *time.Time) {
		now := time.Unix(1000, 0)
		co, err := NewCoordinator(cfg, DistConfig{
			LeaseSize: size,
			LeaseTTL:  10 * time.Second,
			now:       func() time.Time { return now },
		})
		if err != nil {
			t.Fatal(err)
		}
		return co, &now
	}
	checkFree := func(co *Coordinator) func(string) {
		return func(at string) {
			for _, f := range co.free {
				if f.Lo >= f.Hi || f.Lo/block != (f.Hi-1)/block {
					t.Fatalf("%s: free span [%d,%d) is empty or straddles kernel blocks of %d", at, f.Lo, f.Hi, block)
				}
			}
		}
	}
	run := func(cfg Config, size, workers int, seed int64) {
		co, now := newCo(cfg, size)
		fmt.Fprintf(&log, "== %d workers, lease size %d, seed %d, resume %v: %d/%d restored\n",
			workers, size, seed, cfg.Resume, co.led.restored, co.Total())
		check := checkFree(co)
		check("after NewCoordinator")
		leaseScript(t, co, now, seed, workers, 4000, &log, check)
		if !co.Done() {
			t.Fatalf("%d workers, lease size %d: campaign not done after the script", workers, size)
		}
		fmt.Fprintln(&log, co.Summary())
		if err := co.WaitDone(nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{5, 16, 64, 1 << 19} {
		for workers := 1; workers <= 3; workers++ {
			run(cfg, size, workers, int64(10*size+workers))
		}
	}

	// A checkpoint with scattered restored spans: one worker takes
	// leases of 7 and commits every third of them.
	ck := cfg
	ck.CheckpointPath = filepath.Join(t.TempDir(), "script.ck")
	ck.CheckpointEvery = 1
	co, _ := newCo(ck, 7)
	for i := 0; ; i++ {
		reply, err := co.Acquire("p", co.Digest())
		if err != nil {
			t.Fatal(err)
		}
		if reply.Status != LeaseGranted {
			break
		}
		if i%3 == 0 {
			if _, err := co.Commit(&SpanSubmit{Worker: "p", Digest: co.Digest(), LeaseID: reply.LeaseID, Span: reply.Span,
				Outcomes: make([]lockstep.Outcome, reply.Span.Hi-reply.Span.Lo)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cancel := make(chan struct{})
	close(cancel)
	if err := co.WaitDone(cancel); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled WaitDone: %v", err)
	}
	image, err := os.ReadFile(ck.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	// Each resumed run starts from the same checkpoint: a finished run
	// overwrites it with the complete campaign.
	ck.Resume = true
	for _, c := range []struct{ size, workers int }{{5, 1}, {16, 2}, {64, 3}, {1 << 19, 3}} {
		if err := os.WriteFile(ck.CheckpointPath, image, 0o644); err != nil {
			t.Fatal(err)
		}
		run(ck, c.size, c.workers, int64(100+c.size+c.workers))
	}

	golden := filepath.Join("testdata", "lease_script.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(log.String(), "\n")
	lines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(lines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(lines) {
			w = lines[i]
		}
		if g != w {
			t.Fatalf("%s:%d: got %q, want %q", golden, i+1, g, w)
		}
	}
}
