package lockstep

import (
	"math/rand"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/mem"
	"lockstep/internal/workload"
)

// TestReplayMatchesLegacyOracle is the differential test for the
// golden-trace replay injection path: a randomized sample of experiments
// — all three fault kinds, detected, soft-converged and masked cases —
// runs through both the Replayer and the legacy dual-CPU oracle, and
// every Outcome must be bit-identical. Boundary cycles (0, an exact
// snapshot cycle, horizon-1) and the degenerate window=1 are pinned in
// explicitly.
func TestReplayMatchesLegacyOracle(t *testing.T) {
	for _, kn := range []string{"puwmod", "ttsprk"} {
		t.Run(kn, func(t *testing.T) {
			const horizon, snapEvery = 4000, 500
			g, err := NewGolden(workload.ByName(kn), horizon, snapEvery)
			if err != nil {
				t.Fatal(err)
			}
			rep := NewReplayer()

			type exp struct {
				inj    Injection
				window int
			}
			var exps []exp
			// Boundary cycles for every kind, default and minimal window.
			for kind := FaultKind(0); kind < NumFaultKinds; kind++ {
				for _, cyc := range []int{0, snapEvery, horizon - 1} {
					exps = append(exps,
						exp{Injection{Flop: 11, Kind: kind, Cycle: cyc}, StopLatency},
						exp{Injection{Flop: 173, Kind: kind, Cycle: cyc}, 1})
				}
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 200; i++ {
				exps = append(exps, exp{
					inj: Injection{
						Flop:  rng.Intn(cpu.NumFlops()),
						Kind:  FaultKind(rng.Intn(NumFaultKinds)),
						Cycle: rng.Intn(horizon),
					},
					window: StopLatency,
				})
			}

			var detected, converged, masked int
			for _, e := range exps {
				want := g.InjectLegacyMode(e.inj, Mode{}, e.window)
				got := rep.InjectMode(g, e.inj, Mode{}, e.window)
				if got != want {
					t.Fatalf("injection %+v window %d: replay %+v != legacy %+v",
						e.inj, e.window, got, want)
				}
				switch {
				case want.Detected:
					detected++
				case want.Converged:
					converged++
				default:
					masked++
				}
			}
			if detected == 0 || converged == 0 || masked == 0 {
				t.Fatalf("sample did not exercise all outcome classes: %d detected, %d converged, %d masked",
					detected, converged, masked)
			}
		})
	}
}

// TestSnapIndexBoundaries pins restore's binary-search snapshot lookup at
// the boundary cycles: cycle 0, cycles exactly on a snapshot, one before
// a snapshot, and horizon-1.
func TestSnapIndexBoundaries(t *testing.T) {
	const horizon, snapEvery = 3000, 500
	g, err := NewGolden(workload.ByName("puwmod"), horizon, snapEvery)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.snaps) != horizon/snapEvery+1 {
		t.Fatalf("got %d snapshots, want %d", len(g.snaps), horizon/snapEvery+1)
	}
	cases := []struct {
		cycle     int
		wantIndex int
		wantCycle int
	}{
		{cycle: 0, wantIndex: 0, wantCycle: 0},
		{cycle: 1, wantIndex: 0, wantCycle: 0},
		{cycle: snapEvery - 1, wantIndex: 0, wantCycle: 0},
		{cycle: snapEvery, wantIndex: 1, wantCycle: snapEvery},
		{cycle: snapEvery + 1, wantIndex: 1, wantCycle: snapEvery},
		{cycle: 2*snapEvery - 1, wantIndex: 1, wantCycle: snapEvery},
		{cycle: 2 * snapEvery, wantIndex: 2, wantCycle: 2 * snapEvery},
		{cycle: horizon - 1, wantIndex: horizon/snapEvery - 1, wantCycle: horizon - snapEvery},
		{cycle: horizon, wantIndex: horizon / snapEvery, wantCycle: horizon},
	}
	for _, c := range cases {
		if got := g.snapIndex(c.cycle); got != c.wantIndex {
			t.Errorf("snapIndex(%d) = %d, want %d", c.cycle, got, c.wantIndex)
		}
		_, cpuAt, snapCycle := g.restore(c.cycle)
		if snapCycle != c.wantCycle {
			t.Errorf("restore(%d) snapshot cycle = %d, want %d", c.cycle, snapCycle, c.wantCycle)
		}
		if cpuAt.State != g.snaps[c.wantIndex].cpu {
			t.Errorf("restore(%d) CPU state is not snapshot %d's", c.cycle, c.wantIndex)
		}
	}
}

// replayCheckBus wraps the ReplayBus a fault-free verification replay
// runs against and diffs every read against the recorded golden read
// stream.
type replayCheckBus struct {
	t     *testing.T
	bus   *mem.ReplayBus
	reads []mem.ReadEvent
	pos   int
	cycle int
}

func (b *replayCheckBus) ReadWord(addr uint32) uint32 {
	w := b.bus.ReadWord(addr)
	if b.pos >= len(b.reads) {
		b.t.Fatalf("cycle %d: replay read #%d (addr 0x%x) beyond the %d-entry golden read log",
			b.cycle, b.pos, addr, len(b.reads))
	}
	want := b.reads[b.pos]
	if int(want.Cycle) != b.cycle || want.Addr != addr&^3 || want.Data != w {
		b.t.Fatalf("replay read #%d = {cycle %d addr 0x%x data 0x%x}, golden log has {cycle %d addr 0x%x data 0x%x}",
			b.pos, b.cycle, addr&^3, w, want.Cycle, want.Addr, want.Data)
	}
	b.pos++
	return w
}

func (b *replayCheckBus) WriteMasked(addr, data, mask uint32) {
	b.bus.WriteMasked(addr, data, mask)
}

// TestGoldenTraceSelfCheck replays the fault-free execution through a
// ReplayBus and asserts it reproduces the golden run exactly: the same
// read stream (cycle, address and data of every bus read), the same
// per-cycle output vectors and state fingerprints. This is the
// end-to-end proof that AdvanceTo-then-step serves byte-identical memory
// inputs, which the injection replay path's prefix and convergence
// verification both rely on. It also holds the trace compaction claim:
// the in-memory trace stays >=3x below the version-1 flat layout.
func TestGoldenTraceSelfCheck(t *testing.T) {
	for _, kn := range []string{"puwmod", "rspeed"} {
		g, err := NewGolden(workload.ByName(kn), 3000, 500)
		if err != nil {
			t.Fatal(err)
		}
		var bus mem.ReplayBus
		s := &g.snaps[0]
		bus.Load(s.ram, s.cycle, g.trace.writes)
		check := &replayCheckBus{t: t, bus: &bus, reads: g.trace.reads}
		c := cpu.CPU{State: s.cpu, Bus: check}
		for cyc := 0; cyc < g.TotalCycles; cyc++ {
			bus.AdvanceTo(cyc + 1)
			check.cycle = cyc + 1
			c.StepCycle()
			out := c.State.Outputs()
			if d := cpu.Diverge(g.trace.outAt(cyc+1), &out); d != 0 {
				t.Fatalf("%s: replayed outputs diverge from trace at cycle %d (dsr %#x)", kn, cyc+1, d)
			}
			if fp := uint32(cpu.Fingerprint(&c.State)); fp != g.trace.fp[cyc+1] {
				t.Fatalf("%s: replayed fingerprint differs from trace at cycle %d", kn, cyc+1)
			}
		}
		if check.pos != len(g.trace.reads) {
			t.Fatalf("%s: replay consumed %d reads, golden log has %d", kn, check.pos, len(g.trace.reads))
		}
	}

	for _, kn := range []string{"puwmod", "ttsprk"} {
		// Campaign-scale horizon: kernels loop, so the OutVec working set
		// saturates while cycles keep growing — that periodicity is what
		// the interning exploits (at 3000 cycles ttsprk compacts only
		// ~2.4x).
		g, err := NewGolden(workload.ByName(kn), 6000, 750)
		if err != nil {
			t.Fatal(err)
		}
		// Version 1 kept a full OutVec plus a 64-bit fingerprint per cycle.
		flatV1 := int64(len(g.trace.outID))*int64(cpu.NumSC*4+8) +
			int64(len(g.trace.writes))*mem.WriteEventBytes +
			int64(len(g.trace.reads))*mem.ReadEventBytes
		if got := g.TraceBytes(); got*3 > flatV1 {
			t.Errorf("%s: compacted trace %d bytes, want >=3x below flat %d", kn, got, flatV1)
		}
	}
}

// TestInjectReplayZeroAlloc is the allocation regression guard for the
// campaign hot path: after warm-up, a Replayer runs experiments of every
// outcome class with zero heap allocations per InjectMode. (Skipped under
// -race, whose instrumentation allocates.)
func TestInjectReplayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g, err := NewGolden(workload.ByName("puwmod"), 3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer()

	// A mix covering the detected / converged / masked code paths
	// (including the goldenStateAt convergence confirmation, which has
	// its own lazily allocated verification bus).
	var injs []Injection
	var haveConverged, haveDetected, haveMasked bool
	for flop := 0; flop < cpu.NumFlops(); flop += 3 {
		for kind := FaultKind(0); kind < NumFaultKinds; kind++ {
			inj := Injection{Flop: flop, Kind: kind, Cycle: 700 + flop%1500}
			out := rep.InjectMode(g, inj, Mode{}, StopLatency)
			keep := false
			switch {
			case out.Detected:
				keep = !haveDetected
				haveDetected = true
			case out.Converged:
				keep = !haveConverged
				haveConverged = true
			default:
				keep = !haveMasked
				haveMasked = true
			}
			if keep {
				injs = append(injs, inj)
			}
		}
		if haveConverged && haveDetected && haveMasked {
			break
		}
	}
	if !haveDetected || !haveConverged || !haveMasked {
		t.Fatalf("could not find all outcome classes (detected %v converged %v masked %v)",
			haveDetected, haveConverged, haveMasked)
	}

	i := 0
	avg := testing.AllocsPerRun(100, func() {
		rep.InjectMode(g, injs[i%len(injs)], Mode{}, StopLatency)
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state InjectMode allocates %.2f times per run, want 0", avg)
	}
}
