package lockstep

import (
	"math/rand"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/workload"
)

func testGolden(t *testing.T, kernel string, cycles int) *Golden {
	t.Helper()
	k := workload.ByName(kernel)
	if k == nil {
		t.Fatalf("no kernel %q", kernel)
	}
	g, err := NewGolden(k, cycles, cycles/8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRestoreReplayEquivalence: restoring the recorded golden state of a
// cycle must land on exactly the state a straight-through run reaches.
func TestRestoreReplayEquivalence(t *testing.T) {
	k := workload.ByName("ttsprk")
	g, err := NewGolden(k, 4000, 512)
	if err != nil {
		t.Fatal(err)
	}
	// Straight-through reference run.
	sysRef, entry, err := k.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ref := cpu.New(sysRef, entry)
	for _, target := range []int{0, 1, 511, 512, 513, 1999, 3999} {
		for ref.State.CycCnt < uint32(target) {
			ref.StepCycle()
		}
		if _, c := g.restore(target); c.State != ref.State {
			t.Fatalf("state mismatch at cycle %d", target)
		}
	}
}

// TestNoFaultNoDivergence: an injection whose kind is soft and whose flip
// lands on a bit, then flips back by re-injection, is not expressible; the
// equivalent sanity check is that a paired run with a soft flip either
// detects, converges, or stays silent — it must never corrupt the golden.
func TestSoftFaultOutcomes(t *testing.T) {
	rep := NewReplayer()
	g := testGolden(t, "ttsprk", 6000)
	rng := rand.New(rand.NewSource(1))
	detected, converged, silent := 0, 0, 0
	for i := 0; i < 300; i++ {
		inj := Injection{
			Flop:  rng.Intn(cpu.NumFlops()),
			Kind:  SoftFlip,
			Cycle: 500 + rng.Intn(4000),
		}
		o := rep.InjectMode(g, inj, Mode{}, StopLatency)
		switch {
		case o.Detected:
			detected++
			if o.DSR == 0 {
				t.Fatalf("detected with empty DSR: %+v", inj)
			}
			if o.DetectCycle < inj.Cycle {
				t.Fatalf("detection before injection: %+v -> %+v", inj, o)
			}
		case o.Converged:
			converged++
		default:
			silent++
		}
	}
	if detected == 0 {
		t.Error("no soft fault ever detected; injection plumbing broken")
	}
	if converged == 0 {
		t.Error("no soft fault ever converged; masking path broken")
	}
	t.Logf("soft outcomes: detected=%d converged=%d silent=%d", detected, converged, silent)
}

// TestHardFaultOutcomes: stuck-at faults detect more often than soft ones
// and never report convergence.
func TestHardFaultOutcomes(t *testing.T) {
	rep := NewReplayer()
	g := testGolden(t, "rspeed", 6000)
	rng := rand.New(rand.NewSource(2))
	detected := 0
	n := 200
	for i := 0; i < n; i++ {
		kind := Stuck0
		if i%2 == 0 {
			kind = Stuck1
		}
		o := rep.InjectMode(g, Injection{
			Flop:  rng.Intn(cpu.NumFlops()),
			Kind:  kind,
			Cycle: 500 + rng.Intn(4000),
		}, Mode{}, StopLatency)
		if o.Converged {
			t.Fatal("hard fault reported convergence")
		}
		if o.Detected {
			detected++
		}
	}
	if detected < n/10 {
		t.Fatalf("only %d/%d hard faults detected; forcing broken?", detected, n)
	}
	t.Logf("hard faults detected: %d/%d", detected, n)
}

// TestDeterministicInjection: the same injection always yields the same
// outcome — the campaign must be reproducible bit-for-bit.
func TestDeterministicInjection(t *testing.T) {
	rep := NewReplayer()
	g := testGolden(t, "puwmod", 4000)
	inj := Injection{Flop: 100, Kind: Stuck1, Cycle: 1234}
	a := rep.InjectMode(g, inj, Mode{}, StopLatency)
	b := rep.InjectMode(g, inj, Mode{}, StopLatency)
	if a != b {
		t.Fatalf("outcomes differ: %+v vs %+v", a, b)
	}
}

// TestPCStuckDetectsFast: a stuck-at on a PC bit must manifest quickly in
// fetch-related SCs.
func TestPCStuckDetectsFast(t *testing.T) {
	rep := NewReplayer()
	g := testGolden(t, "a2time", 4000)
	// Find a PC flop (registry entry "PC", bit 4).
	flop := -1
	for i := 0; i < cpu.NumFlops(); i++ {
		f := cpu.FlopAt(i)
		if cpu.Registry()[f.Reg].Name == "PC" && f.Bit == 4 {
			flop = i
			break
		}
	}
	if flop < 0 {
		t.Fatal("no PC flop found")
	}
	o := rep.InjectMode(g, Injection{Flop: flop, Kind: Stuck1, Cycle: 1000}, Mode{}, StopLatency)
	if !o.Detected {
		t.Fatal("PC stuck-at not detected")
	}
	if lat := o.DetectCycle - 1000; lat > 200 {
		t.Fatalf("PC stuck-at took %d cycles to manifest", lat)
	}
	iaddrMask := uint64(0xFF) << cpu.SCIAddr0
	if o.DSR&iaddrMask == 0 {
		t.Fatalf("PC fault DSR %#x has no instruction-address SCs", o.DSR)
	}
}

// TestHardSpreadsMoreThanSoft checks the direction of the paper's Section
// III-B observation: for the same flops, hard errors diverge more SCs at
// detection than soft errors (54% more diverged SC sets in the paper).
func TestHardSpreadsMoreThanSoft(t *testing.T) {
	rep := NewReplayer()
	g := testGolden(t, "aifirf", 8000)
	rng := rand.New(rand.NewSource(3))
	var softBits, hardBits, pairs int
	for i := 0; i < 400 && pairs < 60; i++ {
		flop := rng.Intn(cpu.NumFlops())
		cycle := 500 + rng.Intn(6000)
		so := rep.InjectMode(g, Injection{Flop: flop, Kind: SoftFlip, Cycle: cycle}, Mode{}, StopLatency)
		ho := rep.InjectMode(g, Injection{Flop: flop, Kind: Stuck1, Cycle: cycle}, Mode{}, StopLatency)
		if !so.Detected || !ho.Detected {
			continue
		}
		softBits += popcount64(so.DSR)
		hardBits += popcount64(ho.DSR)
		pairs++
	}
	if pairs < 20 {
		t.Skipf("only %d detected pairs; not enough signal", pairs)
	}
	t.Logf("avg diverged SCs at detection: soft=%.2f hard=%.2f (%d pairs)",
		float64(softBits)/float64(pairs), float64(hardBits)/float64(pairs), pairs)
	if hardBits <= softBits {
		t.Errorf("hard faults should diverge at least as many SCs as soft: hard=%d soft=%d",
			hardBits, softBits)
	}
}

func popcount64(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func TestCheckerLatchesFirstError(t *testing.T) {
	var ch Checker
	a := cpu.OutVec{}
	b := cpu.OutVec{}
	if ch.Compare(&a, &b) {
		t.Fatal("identical vectors flagged")
	}
	b[cpu.SCWBData2] = 0xAA
	if !ch.Compare(&a, &b) {
		t.Fatal("divergence not flagged")
	}
	if ch.DSR != 1<<cpu.SCWBData2 {
		t.Fatalf("DSR = %#x", ch.DSR)
	}
	if ch.ErrCycle != 2 {
		t.Fatalf("ErrCycle = %d, want 2", ch.ErrCycle)
	}
	// Further divergences must not overwrite the latched DSR.
	b[cpu.SCIAddr0] = 1
	if ch.Compare(&a, &b) {
		t.Fatal("second compare after latch returned true")
	}
	if ch.DSR != 1<<cpu.SCWBData2 {
		t.Fatalf("DSR overwritten: %#x", ch.DSR)
	}
	ch.Reset()
	if ch.Error || ch.DSR != 0 {
		t.Fatal("reset did not clear checker")
	}
}

func TestCheckerMultiCPUOr(t *testing.T) {
	var ch Checker
	a, b, c := cpu.OutVec{}, cpu.OutVec{}, cpu.OutVec{}
	b[cpu.SCDAddr1] = 1
	c[cpu.SCExtCtlRW] = 1
	ch.Compare(&a, &b, &c)
	want := uint64(1)<<cpu.SCDAddr1 | uint64(1)<<cpu.SCExtCtlRW
	if ch.DSR != want {
		t.Fatalf("DSR = %#x, want %#x", ch.DSR, want)
	}
}

func TestTMRVoterIdentifiesErringCPU(t *testing.T) {
	tmr, err := NewTMR(workload.ByName("canrdr"))
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free warmup: no divergence.
	for i := 0; i < 2000; i++ {
		if v := tmr.Step(); v.Diverged {
			t.Fatalf("spurious TMR divergence at cycle %d", tmr.Cycle)
		}
	}
	// Stuck-at on CPU 2.
	tmr.Arm(2, Injection{Flop: 40, Kind: Stuck1, Cycle: tmr.Cycle + 1})
	found := false
	for i := 0; i < 20000; i++ {
		v := tmr.Step()
		if v.Diverged {
			if v.Erring != 2 {
				t.Fatalf("voter blamed CPU %d, want 2", v.Erring)
			}
			if v.DSR == 0 {
				t.Fatal("empty DSR on TMR divergence")
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("fault masked on this flop; acceptable")
	}
}

func TestTMRForwardRecovery(t *testing.T) {
	tmr, err := NewTMR(workload.ByName("puwmod"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		tmr.Step()
	}
	// Soft fault on CPU 1; wait for the voter to catch it.
	tmr.Arm(1, Injection{Flop: 5, Kind: SoftFlip, Cycle: tmr.Cycle + 1})
	caught := false
	for i := 0; i < 20000; i++ {
		v := tmr.Step()
		if v.Diverged {
			if v.Erring != 1 {
				t.Fatalf("voter blamed CPU %d, want 1", v.Erring)
			}
			caught = true
			break
		}
	}
	if !caught {
		t.Skip("soft fault masked; acceptable for this flop")
	}
	tmr.ForwardRecover(0)
	for i := 0; i < 5000; i++ {
		if v := tmr.Step(); v.Diverged {
			t.Fatalf("divergence after forward recovery at +%d", i)
		}
	}
}

func TestTraceMatchesInject(t *testing.T) {
	rep := NewReplayer()
	g := testGolden(t, "rspeed", 6000)
	inj := Injection{Flop: 900, Kind: Stuck1, Cycle: 2000}
	out := rep.InjectMode(g, inj, Mode{}, StopLatency)
	tr := g.Trace(inj, StopLatency)
	if out.Detected != tr.Outcome.Detected {
		t.Fatalf("trace and inject disagree on detection")
	}
	if !out.Detected {
		t.Skip("fault masked; nothing to compare")
	}
	if tr.Outcome.DetectCycle != out.DetectCycle {
		t.Fatalf("detect cycle %d vs %d", tr.Outcome.DetectCycle, out.DetectCycle)
	}
	// The accumulated DSR over the same window must match, and equal the
	// OR of the per-cycle maps.
	if tr.Outcome.DSR != out.DSR {
		t.Fatalf("accumulated DSR %#x vs inject %#x", tr.Outcome.DSR, out.DSR)
	}
	var orAll uint64
	for _, m := range tr.Maps {
		orAll |= m
	}
	if orAll != tr.Outcome.DSR {
		t.Fatalf("per-cycle maps OR to %#x, DSR %#x", orAll, tr.Outcome.DSR)
	}
	if tr.Maps[0] == 0 {
		t.Fatal("first trace sample must be the detection divergence")
	}
}

func TestTraceConvergedTransient(t *testing.T) {
	g := testGolden(t, "puwmod", 4000)
	// Hunt a masked transient: most regfile flips in dead windows converge.
	for flop := 600; flop < 1000; flop += 7 {
		tr := g.Trace(Injection{Flop: flop, Kind: SoftFlip, Cycle: 1500}, 8)
		if tr.Outcome.Converged {
			if len(tr.Maps) != 0 {
				t.Fatal("converged trace should have no divergence samples")
			}
			return
		}
	}
	t.Skip("no converged transient found in the sampled range")
}

// TestOutcomeInvariants: property test over random injections — every
// outcome satisfies the structural invariants of the harness.
func TestOutcomeInvariants(t *testing.T) {
	rep := NewReplayer()
	g := testGolden(t, "iirflt", 6000)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 250; i++ {
		inj := Injection{
			Flop:  rng.Intn(cpu.NumFlops()),
			Kind:  FaultKind(rng.Intn(NumFaultKinds)),
			Cycle: rng.Intn(6000),
		}
		o := rep.InjectMode(g, inj, Mode{}, StopLatency)
		if o.Detected && o.Converged {
			t.Fatalf("outcome both detected and converged: %+v", inj)
		}
		if o.Detected {
			if o.DSR == 0 {
				t.Fatalf("detected with empty DSR: %+v", inj)
			}
			if o.DetectCycle < inj.Cycle {
				t.Fatalf("detection before injection: %+v %+v", inj, o)
			}
		} else if o.DSR != 0 || o.DetectCycle != 0 {
			t.Fatalf("undetected outcome carries data: %+v", o)
		}
		if o.Converged && inj.Kind.IsHard() {
			t.Fatalf("hard fault converged: %+v", inj)
		}
	}
}

// TestWindowedDSRIsSuperset: the accumulated DSR always contains the
// first-divergence map (window 1 result).
func TestWindowedDSRIsSuperset(t *testing.T) {
	rep := NewReplayer()
	g := testGolden(t, "cacheb", 6000)
	rng := rand.New(rand.NewSource(13))
	compared := 0
	for i := 0; i < 300 && compared < 60; i++ {
		inj := Injection{
			Flop:  rng.Intn(cpu.NumFlops()),
			Kind:  Stuck1,
			Cycle: rng.Intn(5000),
		}
		first := rep.InjectMode(g, inj, Mode{}, 1)
		full := rep.InjectMode(g, inj, Mode{}, StopLatency)
		if first.Detected != full.Detected {
			t.Fatalf("window changed detection: %+v", inj)
		}
		if !first.Detected {
			continue
		}
		if first.DetectCycle != full.DetectCycle {
			t.Fatalf("window changed detection cycle: %+v", inj)
		}
		if full.DSR&first.DSR != first.DSR {
			t.Fatalf("windowed DSR %#x not a superset of first map %#x", full.DSR, first.DSR)
		}
		compared++
	}
	if compared < 20 {
		t.Skipf("only %d detections; weak sample", compared)
	}
}
