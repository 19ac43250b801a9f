package inject

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
)

// distConfig returns a small two-kernel campaign plus a DistConfig driven
// by a test-controlled clock.
func distConfig(t *testing.T) (Config, DistConfig, *time.Time) {
	t.Helper()
	cfg := smallConfig()
	now := time.Unix(1000, 0)
	dc := DistConfig{
		LeaseSize: 16,
		LeaseTTL:  10 * time.Second,
		now:       func() time.Time { return now },
	}
	return cfg, dc, &now
}

func csvBytes(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainCampaign pulls leases for the named workers round-robin and
// commits each through its own SpanRunner until the coordinator reports
// done, mimicking a multi-node cluster in-process.
func drainCampaign(t *testing.T, co *Coordinator, cfg Config, workers ...string) {
	t.Helper()
	runners := map[string]*SpanRunner{}
	for i := 0; ; i = (i + 1) % len(workers) {
		w := workers[i]
		reply, err := co.Acquire(w, co.Digest(), 0)
		if err != nil {
			t.Fatalf("worker %s: acquire: %v", w, err)
		}
		switch reply.Status {
		case LeaseDone:
			return
		case LeaseWait:
			t.Fatalf("worker %s: unexpected wait with no outstanding leases", w)
		}
		r := runners[w]
		if r == nil {
			rcfg, err := reply.FP.Config()
			if err != nil {
				t.Fatal(err)
			}
			rcfg.Workers = 1
			if r, err = NewSpanRunner(rcfg); err != nil {
				t.Fatal(err)
			}
			runners[w] = r
		}
		outcomes, st, err := r.Run(reply.Span)
		if err != nil {
			t.Fatalf("worker %s: span [%d,%d): %v", w, reply.Span.Lo, reply.Span.Hi, err)
		}
		ack, err := co.Commit(&SpanSubmit{
			Worker: w, Digest: co.Digest(), LeaseID: reply.LeaseID, Span: reply.Span,
			Pruned: st.Pruned, OracleChecked: st.OracleChecked, Outcomes: outcomes,
		})
		if err != nil {
			t.Fatalf("worker %s: commit: %v", w, err)
		}
		if ack.Duplicate {
			t.Fatalf("worker %s: fresh span [%d,%d) acked as duplicate", w, reply.Span.Lo, reply.Span.Hi)
		}
	}
}

// TestDistributedMatchesRun is the core byte-identity property: a
// campaign merged from leased spans equals a single-machine inject.Run,
// at several worker counts and lease sizes, and in every lockstep mode —
// the coordinator renders the mode column, and every real outcome lies
// inside the bounds Commit enforces.
func TestDistributedMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name      string
		workers   []string
		leaseSize int
		mode      string
	}{
		{"1worker", []string{"a"}, 16, "dcls"},
		{"2workers", []string{"a", "b"}, 16, "dcls"},
		{"3workers-oddlease", []string{"a", "b", "c"}, 7, "dcls"},
		{"hugelease", []string{"a", "b"}, 1 << 19, "dcls"},
		{"tmr", []string{"a", "b"}, 16, "tmr"},
		{"slip16", []string{"a", "b"}, 16, "slip:16"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, dc, _ := distConfig(t)
			mode, err := lockstep.ParseMode(tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Mode = mode
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantCSV := csvBytes(t, want)
			dc.LeaseSize = tc.leaseSize
			co, err := NewCoordinator(cfg, dc)
			if err != nil {
				t.Fatal(err)
			}
			drainCampaign(t, co, cfg, tc.workers...)
			if err := co.WaitDone(nil); err != nil {
				t.Fatal(err)
			}
			ds, st, err := co.Result()
			if err != nil {
				t.Fatal(err)
			}
			if got := csvBytes(t, ds); !bytes.Equal(got, wantCSV) {
				t.Fatalf("distributed dataset differs from direct run (%d vs %d bytes)", len(got), len(wantCSV))
			}
			if st.Experiments != want.Len() {
				t.Fatalf("stats report %d experiments, want %d", st.Experiments, want.Len())
			}
			if !cfg.NoPrune && st.Pruned == 0 {
				t.Error("no pruning reported through span submissions")
			}
		})
	}
}

// TestLeaseKernelAffinity asserts leases never straddle kernel blocks,
// concurrent workers are spread across distinct blocks, and a worker
// stays in its block while the block has free work — the property that
// lets each worker node build one golden instead of all of them.
func TestLeaseKernelAffinity(t *testing.T) {
	cfg, dc, _ := distConfig(t)
	co, err := NewCoordinator(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	total := co.Total()
	block := total / len(co.Fingerprint().Kernels)
	workers := []string{"a", "b"}
	first := map[string]int{}   // first block each worker was steered to
	foreign := map[string]int{} // leases outside the worker's own block
	granted := true
	for granted {
		granted = false
		for _, name := range workers {
			reply, err := co.Acquire(name, co.Digest(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Status != LeaseGranted {
				continue
			}
			granted = true
			sp := reply.Span
			if sp.Lo/block != (sp.Hi-1)/block {
				t.Fatalf("lease [%d,%d) straddles kernel blocks of %d", sp.Lo, sp.Hi, block)
			}
			b := sp.Lo / block
			if home, seen := first[name]; !seen {
				first[name] = b
			} else if b != home {
				foreign[name]++
			}
		}
	}
	if first["a"] == first["b"] {
		t.Errorf("both workers steered to kernel block %d; want them spread across blocks", first["a"])
	}
	// A worker may steal from a foreign block only once its own is dry —
	// with same-size blocks and alternating acquires that is at most the
	// trailing remainder lease.
	for name, n := range foreign {
		if n > 1 {
			t.Errorf("worker %s leased %d spans outside its home block; affinity is not sticky", name, n)
		}
	}
}

// TestDrainWorkers covers the standalone coordinator's shutdown grace:
// DrainWorkers must block while a worker that held leases has not yet
// observed completion, time out on its behalf if it never polls (the
// crashed-worker bound), and return promptly once every known worker
// has seen LeaseDone or a done==total commit ack.
func TestDrainWorkers(t *testing.T) {
	cfg, dc, _ := distConfig(t)
	co, err := NewCoordinator(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	// Three workers: the one landing the final commit learns of
	// completion from its ack, the next in rotation from its LeaseDone
	// acquire; the third is a straggler that has not polled since.
	drainCampaign(t, co, cfg, "a", "b", "c")
	waiting := func() []string {
		co.mu.Lock()
		defer co.mu.Unlock()
		var names []string
		for name, w := range co.workers {
			if !w.sawDone {
				names = append(names, name)
			}
		}
		return names
	}
	stragglers := waiting()
	if len(stragglers) != 1 {
		t.Fatalf("after completion %d workers have not seen done (%v), want exactly 1", len(stragglers), stragglers)
	}
	start := time.Now()
	co.DrainWorkers(50 * time.Millisecond)
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("DrainWorkers returned after %v with straggler %s outstanding; want the full timeout", el, stragglers[0])
	}
	reply, err := co.Acquire(stragglers[0], co.Digest(), 0)
	if err != nil || reply.Status != LeaseDone {
		t.Fatalf("straggler acquire = %+v, %v; want LeaseDone", reply, err)
	}
	if rest := waiting(); len(rest) != 0 {
		t.Fatalf("workers %v still unseen after every worker polled", rest)
	}
	done := make(chan struct{})
	go func() { co.DrainWorkers(time.Minute); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("DrainWorkers did not return promptly with no stragglers outstanding")
	}
}

// TestDrainWorkersCoversWaitOnlyWorker pins the drain of a worker that
// joined while every span was leased: it holds no entry, but it polls
// again within the Retry of its LeaseWait, so DrainWorkers must keep the
// coordinator up at least that long after the wait reply.
func TestDrainWorkersCoversWaitOnlyWorker(t *testing.T) {
	cfg, dc, _ := distConfig(t) // Retry 250 ms; the test clock never expires a lease
	co, err := NewCoordinator(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	var leases []*LeaseReply
	for {
		reply, err := co.Acquire("holder", co.Digest(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Status != LeaseGranted {
			break
		}
		leases = append(leases, reply)
	}
	waitAt := time.Now()
	reply, err := co.Acquire("late", co.Digest(), 0)
	if err != nil || reply.Status != LeaseWait {
		t.Fatalf("late acquire = %+v, %v; want a wait", reply, err)
	}
	rcfg, err := reply.FP.Config()
	if err != nil {
		t.Fatal(err)
	}
	rcfg.Workers = 1
	r, err := NewSpanRunner(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leases {
		outcomes, st, err := r.Run(l.Span)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co.Commit(&SpanSubmit{
			Worker: "holder", Digest: co.Digest(), LeaseID: l.LeaseID, Span: l.Span,
			Pruned: st.Pruned, OracleChecked: st.OracleChecked, Outcomes: outcomes,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !co.Done() {
		t.Fatal("campaign not done after every lease committed")
	}
	co.DrainWorkers(time.Minute)
	if el := time.Since(waitAt); el < reply.Retry {
		t.Fatalf("DrainWorkers returned %v after the wait reply, before the waiting worker's %v poll", el, reply.Retry)
	}
	if reply, err := co.Acquire("late", co.Digest(), 0); err != nil || reply.Status != LeaseDone {
		t.Fatalf("late poll after drain = %+v, %v; want LeaseDone", reply, err)
	}
}

// TestWaitingWorkersLeaveNoState pins that the coordinator learns a
// worker from its first lease, not from its first request: once every
// span is leased, 5,000 acquires under distinct names are all told to
// wait and add neither a worker entry nor an inject.worker_per_sec gauge.
func TestWaitingWorkersLeaveNoState(t *testing.T) {
	cfg, dc, _ := distConfig(t)
	co, err := NewCoordinator(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	for {
		reply, err := co.Acquire("holder", co.Digest(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Status == LeaseWait {
			break
		}
		if reply.Status != LeaseGranted {
			t.Fatalf("acquire status %v before every span is leased", reply.Status)
		}
	}
	gauges := func() int {
		n := 0
		for _, g := range telemetry.Default.Snapshot().Gauges {
			if g.Name == "inject.worker_per_sec" {
				n++
			}
		}
		return n
	}
	workers, perSec := co.Stats().Workers, gauges()
	for i := 0; i < 5000; i++ {
		reply, err := co.Acquire(fmt.Sprintf("idle-%d", i), co.Digest(), 0)
		if err != nil || reply.Status != LeaseWait {
			t.Fatalf("acquire %d: status %v, %v; want a wait", i, reply.Status, err)
		}
	}
	if got := co.Stats().Workers; got != workers {
		t.Errorf("coordinator knows %d workers after the waits, want %d", got, workers)
	}
	if got := gauges(); got != perSec {
		t.Errorf("%d worker_per_sec gauges after the waits, want %d", got, perSec)
	}
}

// TestLeaseExpiryReissue covers the worker-death path: an uncommitted
// lease expires, its span is re-issued to another worker, the dead
// worker's late commit is refused (*LeaseExpiredError) before the
// re-issue lands and acked as a duplicate after.
func TestLeaseExpiryReissue(t *testing.T) {
	cfg, dc, now := distConfig(t)
	co, err := NewCoordinator(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := co.Acquire("dead", co.Digest(), 0)
	if err != nil || lease.Status != LeaseGranted {
		t.Fatalf("acquire: %v (status %v)", err, lease.Status)
	}

	rcfg, err := lease.FP.Config()
	if err != nil {
		t.Fatal(err)
	}
	rcfg.Workers = 1
	runner, err := NewSpanRunner(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, _, err := runner.Run(lease.Span)
	if err != nil {
		t.Fatal(err)
	}
	sub := &SpanSubmit{Worker: "dead", Digest: co.Digest(), LeaseID: lease.LeaseID, Span: lease.Span, Outcomes: outcomes}

	// The worker "dies": its TTL passes before it commits.
	*now = now.Add(dc.LeaseTTL + time.Second)
	reissued, err := co.Acquire("live", co.Digest(), 0)
	if err != nil || reissued.Status != LeaseGranted {
		t.Fatalf("re-acquire: %v (status %v)", err, reissued.Status)
	}
	if reissued.Span.Lo != lease.Span.Lo {
		t.Fatalf("expected the expired span [%d,%d) re-issued first, got [%d,%d)",
			lease.Span.Lo, lease.Span.Hi, reissued.Span.Lo, reissued.Span.Hi)
	}

	// Late commit from the dead worker, span not yet covered: refused.
	var lee *LeaseExpiredError
	if _, err := co.Commit(sub); !errors.As(err, &lee) {
		t.Fatalf("late commit of re-issued span: got %v, want *LeaseExpiredError", err)
	}

	// The live worker commits the re-issued lease.
	if _, err := co.Commit(&SpanSubmit{
		Worker: "live", Digest: co.Digest(), LeaseID: reissued.LeaseID, Span: reissued.Span, Outcomes: outcomes,
	}); err != nil {
		t.Fatalf("re-issued commit: %v", err)
	}

	// Now the dead worker's copy is a duplicate: dropped with an ack.
	ack, err := co.Commit(sub)
	if err != nil {
		t.Fatalf("duplicate commit: %v", err)
	}
	if !ack.Duplicate {
		t.Fatal("covered span not acked as duplicate")
	}

	if s := co.Summary(); !strings.Contains(s, "1 expired") || !strings.Contains(s, "1 reissued") || !strings.Contains(s, "1 duplicate") {
		t.Fatalf("summary does not account the lifecycle: %s", s)
	}
}

// TestCommitRejections is the table test for lease requests and span
// commits the coordinator must refuse outright: a foreign digest, a dead
// lease, and every malformed submission, which is a *MessageError (400
// bad_request over HTTP) whatever the coordinator's state.
func TestCommitRejections(t *testing.T) {
	cfg, dc, _ := distConfig(t)
	co, err := NewCoordinator(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := co.Acquire("w", co.Digest(), 0)
	if err != nil {
		t.Fatal(err)
	}
	n := lease.Span.Hi - lease.Span.Lo
	first := co.plan[lease.Span.Lo]
	// outcomes returns a valid all-masked span with out at position 0.
	outcomes := func(out lockstep.Outcome) []lockstep.Outcome {
		outs := make([]lockstep.Outcome, n)
		outs[0] = out
		return outs
	}
	submit := func(mut func(*SpanSubmit)) *SpanSubmit {
		sub := &SpanSubmit{Worker: "w", Digest: co.Digest(), LeaseID: lease.LeaseID, Span: lease.Span, Outcomes: outcomes(lockstep.Outcome{})}
		mut(sub)
		return sub
	}
	long := strings.Repeat("x", maxNameBytes+1)

	t.Run("stale fingerprint acquire", func(t *testing.T) {
		var sfe *StaleFingerprintError
		if _, err := co.Acquire("w", "deadbeef", 0); !errors.As(err, &sfe) {
			t.Fatalf("got %v, want *StaleFingerprintError", err)
		}
	})
	t.Run("stale fingerprint commit", func(t *testing.T) {
		var sfe *StaleFingerprintError
		if _, err := co.Commit(submit(func(s *SpanSubmit) { s.Digest = "deadbeef" })); !errors.As(err, &sfe) {
			t.Fatalf("got %v, want *StaleFingerprintError", err)
		}
	})
	t.Run("unknown lease over uncovered span", func(t *testing.T) {
		var lee *LeaseExpiredError
		if _, err := co.Commit(submit(func(s *SpanSubmit) { s.LeaseID = 999 })); !errors.As(err, &lee) {
			t.Fatalf("got %v, want *LeaseExpiredError", err)
		}
	})
	t.Run("long worker name acquire", func(t *testing.T) {
		var me *MessageError
		if _, err := co.Acquire(long, co.Digest(), 0); !errors.As(err, &me) {
			t.Fatalf("got %v, want *MessageError", err)
		}
	})
	for _, tc := range []struct {
		name string
		mut  func(*SpanSubmit)
	}{
		{"outcome count mismatch", func(s *SpanSubmit) { s.Outcomes = s.Outcomes[:n-1] }},
		{"span outside plan", func(s *SpanSubmit) {
			s.Span = Span{Lo: 0, Hi: co.Total() + 1}
			s.Outcomes = make([]lockstep.Outcome, co.Total()+1)
		}},
		{"empty span", func(s *SpanSubmit) { s.Span.Hi = s.Span.Lo; s.Outcomes = nil }},
		{"detect cycle before injection", func(s *SpanSubmit) {
			s.Outcomes = outcomes(lockstep.Outcome{Detected: true, DetectCycle: first.Cycle - 1, DSR: 1})
		}},
		{"detect cycle at horizon", func(s *SpanSubmit) {
			s.Outcomes = outcomes(lockstep.Outcome{Detected: true, DetectCycle: cfg.RunCycles, DSR: 1})
		}},
		{"undetected with DSR", func(s *SpanSubmit) { s.Outcomes = outcomes(lockstep.Outcome{DSR: 1}) }},
		{"undetected with detect cycle", func(s *SpanSubmit) {
			s.Outcomes = outcomes(lockstep.Outcome{DetectCycle: first.Cycle})
		}},
		{"negative pruned", func(s *SpanSubmit) { s.Pruned = -1 }},
		{"oracle checked beyond span", func(s *SpanSubmit) { s.OracleChecked = n + 1 }},
		{"negative busy time", func(s *SpanSubmit) { s.BusyUS = -1 }},
		{"long worker name", func(s *SpanSubmit) { s.Worker = long }},
		{"long digest", func(s *SpanSubmit) { s.Digest = long }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var me *MessageError
			if _, err := co.Commit(submit(tc.mut)); !errors.As(err, &me) {
				t.Fatalf("got %v, want *MessageError", err)
			}
		})
	}

	// The bounds admit the extremes a real outcome can take: a detection
	// at the injection cycle or on the horizon's last cycle.
	ok := submit(func(s *SpanSubmit) {
		s.Outcomes = outcomes(lockstep.Outcome{Detected: true, DetectCycle: first.Cycle, DSR: 1})
		s.Outcomes[n-1] = lockstep.Outcome{Detected: true, DetectCycle: cfg.RunCycles - 1, DSR: 1}
	})
	if _, err := co.Commit(ok); err != nil {
		t.Fatalf("in-bounds commit refused: %v", err)
	}
}

// TestCoordinatorResume kills a distributed campaign mid-merge (cancel)
// and finishes it with a fresh coordinator resuming from the checkpoint;
// the final dataset must be byte-identical to a direct run.
func TestCoordinatorResume(t *testing.T) {
	cfg, dc, _ := distConfig(t)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "dist.ck")
	cfg.CheckpointEvery = 8

	want, err := Run(stripCheckpoint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := csvBytes(t, want)

	// Phase 1: merge a prefix, then cancel.
	co, err := NewCoordinator(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	rcfg, err := co.Fingerprint().Config()
	if err != nil {
		t.Fatal(err)
	}
	rcfg.Workers = 1
	runner, err := NewSpanRunner(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for committed < co.Total()/2 {
		reply, err := co.Acquire("a", co.Digest(), 0)
		if err != nil || reply.Status != LeaseGranted {
			t.Fatalf("acquire: %v (status %v)", err, reply.Status)
		}
		outcomes, _, err := runner.Run(reply.Span)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co.Commit(&SpanSubmit{
			Worker: "a", Digest: co.Digest(), LeaseID: reply.LeaseID, Span: reply.Span, Outcomes: outcomes,
		}); err != nil {
			t.Fatal(err)
		}
		committed += reply.Span.Hi - reply.Span.Lo
	}
	cancel := make(chan struct{})
	close(cancel)
	if err := co.WaitDone(cancel); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled WaitDone: got %v, want ErrCanceled", err)
	}

	// Phase 2: a new coordinator resumes and only the rest is leased.
	cfg.Resume = true
	co2, err := NewCoordinator(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	if done, total := co2.Progress(); done != committed || total != co.Total() {
		t.Fatalf("resumed coordinator restored %d/%d, want %d/%d", done, total, committed, co.Total())
	}
	drainCampaign(t, co2, cfg, "b")
	if err := co2.WaitDone(nil); err != nil {
		t.Fatal(err)
	}
	ds, st, err := co2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != committed {
		t.Errorf("stats report %d restored, want %d", st.Restored, committed)
	}
	if got := csvBytes(t, ds); !bytes.Equal(got, wantCSV) {
		t.Fatal("resumed distributed dataset differs from direct run")
	}
}

func stripCheckpoint(cfg Config) Config {
	cfg.CheckpointPath = ""
	cfg.CheckpointEvery = 0
	cfg.Resume = false
	return cfg
}

// TestSpanRunnerMatchesRun re-derives a run's records span by span
// through the worker-side path, rendered the way Coordinator.Commit
// renders them, and compares every record.
func TestSpanRunnerMatchesRun(t *testing.T) {
	cfg := smallConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSpanRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != want.Len() {
		t.Fatalf("runner plan %d, run produced %d", r.Total(), want.Len())
	}
	var got []dataset.Record
	for lo := 0; lo < r.Total(); lo += 37 { // deliberately unaligned spans
		hi := lo + 37
		if hi > r.Total() {
			hi = r.Total()
		}
		outcomes, _, err := r.Run(Span{Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outcomes {
			got = append(got, recordFor(r.en.plan[lo+i], out, r.en.cfg.Mode))
		}
	}
	if !reflect.DeepEqual(got, want.Records) {
		t.Fatal("span-runner records differ from inject.Run")
	}
}

// TestFingerprintConfigRoundTrip: a worker must reconstruct the exact
// schedule from the coordinator's fingerprint.
func TestFingerprintConfigRoundTrip(t *testing.T) {
	cfg := smallConfig()
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	back, err := fp.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fp, fp2) {
		t.Fatalf("round trip changed the fingerprint:\nin  %+v\nout %+v", fp, fp2)
	}
	if fp.Digest() != fp2.Digest() {
		t.Fatal("round trip changed the digest")
	}

	bad := fp
	bad.TraceVersion = lockstep.TraceVersion + 1
	if _, err := bad.Config(); err == nil {
		t.Fatal("foreign trace version accepted")
	}
	bad = fp
	bad.Kernels = []string{"no-such-kernel"}
	if _, err := bad.Config(); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	bad = fp
	bad.Kinds = []int{99}
	if _, err := bad.Config(); err == nil {
		t.Fatal("unknown fault kind accepted")
	}
}

// TestDigestMatchesLegacyJobID pins the digest to the exact derivation
// lockstep-serve has used for job IDs since PR 5 (hex of the first 8
// sha256 bytes of the fingerprint JSON), so old data directories keep
// resolving.
func TestDigestMatchesLegacyJobID(t *testing.T) {
	cfg := smallConfig()
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	d := fp.Digest()
	if len(d) != 16 {
		t.Fatalf("digest %q is not 16 hex chars", d)
	}
	for _, c := range d {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("digest %q is not lowercase hex", d)
		}
	}
	// Distinct schedules get distinct digests.
	cfg2 := cfg
	cfg2.Seed++
	fp2, err := cfg2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2.Digest() == d {
		t.Fatal("different seeds share a digest")
	}
}
