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
// every Outcome must be bit-identical. Boundary cycles (0, a mid-run
// cycle, horizon-1) and the degenerate window=1 are pinned in explicitly.
func TestReplayMatchesLegacyOracle(t *testing.T) {
	for _, kn := range []string{"puwmod", "ttsprk"} {
		t.Run(kn, func(t *testing.T) {
			const horizon, mid = 4000, 500
			g, err := NewGolden(workload.ByName(kn), horizon, horizon/8)
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
				for _, cyc := range []int{0, mid, horizon - 1} {
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

// TestRestoreBoundaries pins restore, the legacy oracle's and Trace's
// entry point, at the boundary cycles: at cycle 0, 1, a mid-run cycle,
// horizon-1 and horizon, the CPU state and the RAM image it rebuilds from
// the reset image and the write log must equal a live fault-free run's.
func TestRestoreBoundaries(t *testing.T) {
	const horizon = 3000
	k := workload.ByName("puwmod")
	g, err := NewGolden(k, horizon, horizon/8)
	if err != nil {
		t.Fatal(err)
	}
	sys, entry, err := k.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	live := cpu.New(sys, entry)
	cyc := 0
	for _, target := range []int{0, 1, horizon / 2, horizon - 1, horizon} {
		for ; cyc < target; cyc++ {
			live.StepCycle()
		}
		rsys, c := g.restore(target)
		if c.State != live.State {
			t.Errorf("restore(%d): CPU state differs from the live run's", target)
		}
		want, got := sys.Snapshot(0, mem.RAMBytes/4), rsys.Snapshot(0, mem.RAMBytes/4)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("restore(%d): RAM word %#x = %#x, live run has %#x", target, i*4, got[i], want[i])
				break
			}
		}
	}
}

// readLogBus wraps a live mem.System and logs every read the CPU
// consumes: the reference stream a replay must reproduce.
type readLogBus struct {
	sys   *mem.System
	cycle int
	reads []readEvent
}

type readEvent struct {
	cycle      int
	addr, data uint32
}

func (b *readLogBus) ReadWord(addr uint32) uint32 {
	w := b.sys.ReadWord(addr)
	b.reads = append(b.reads, readEvent{b.cycle, addr &^ 3, w})
	return w
}

func (b *readLogBus) WriteMasked(addr, data, mask uint32) { b.sys.WriteMasked(addr, data, mask) }

// replayCheckBus wraps the ReplayBus a fault-free verification replay
// runs against and diffs every read against the live run's read stream.
type replayCheckBus struct {
	t     *testing.T
	bus   *mem.ReplayBus
	reads []readEvent
	pos   int
	cycle int
}

func (b *replayCheckBus) ReadWord(addr uint32) uint32 {
	w := b.bus.ReadWord(addr)
	if b.pos >= len(b.reads) {
		b.t.Fatalf("cycle %d: replay read #%d (addr 0x%x) beyond the live run's %d reads",
			b.cycle, b.pos, addr, len(b.reads))
	}
	want := b.reads[b.pos]
	if got := (readEvent{b.cycle, addr &^ 3, w}); got != want {
		b.t.Fatalf("replay read #%d = %+v, live run read %+v", b.pos, got, want)
	}
	b.pos++
	return w
}

func (b *replayCheckBus) WriteMasked(addr, data, mask uint32) {
	b.bus.WriteMasked(addr, data, mask)
}

// TestGoldenTraceSelfCheck replays the fault-free execution through a
// ReplayBus and asserts it reproduces a live run exactly: the same read
// stream (cycle, address and data of every bus read, logged from the live
// run by a read-logging bus around mem.System), the output vectors of the
// recorded states, and states equal to the recorded states[c]. This is
// the end-to-end proof that AdvanceTo-then-step serves byte-identical
// memory inputs, which the injection replay path relies on after every
// start and every jump.
func TestGoldenTraceSelfCheck(t *testing.T) {
	for _, kn := range []string{"puwmod", "rspeed"} {
		k := workload.ByName(kn)
		g, err := NewGolden(k, 3000, 500)
		if err != nil {
			t.Fatal(err)
		}
		sys, entry, err := k.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		logBus := &readLogBus{sys: sys}
		live := cpu.New(logBus, entry)
		for cyc := 1; cyc <= g.TotalCycles; cyc++ {
			logBus.cycle = cyc
			live.StepCycle()
		}

		var bus mem.ReplayBus
		bus.Load(g.ram0, g.writes)
		check := &replayCheckBus{t: t, bus: &bus, reads: logBus.reads}
		c := cpu.CPU{State: g.states[0], Bus: check}
		for cyc := 0; cyc < g.TotalCycles; cyc++ {
			bus.AdvanceTo(cyc + 1)
			check.cycle = cyc + 1
			c.StepCycle()
			out, want := c.State.Outputs(), g.states[cyc+1].Outputs()
			if d := cpu.Diverge(&want, &out); d != 0 {
				t.Fatalf("%s: replayed outputs diverge from the recorded state's at cycle %d (dsr %#x)", kn, cyc+1, d)
			}
			if c.State != g.states[cyc+1] {
				t.Fatalf("%s: replayed state differs from the recorded one at cycle %d", kn, cyc+1)
			}
		}
		if check.pos != len(logBus.reads) {
			t.Fatalf("%s: replay consumed %d reads, the live run %d", kn, check.pos, len(logBus.reads))
		}
	}
}

// TestInjectReplayZeroAlloc is the allocation regression guard for the
// campaign hot path: after warm-up, a Replayer runs experiments of every
// outcome class, a stuck-at fault that takes the skip, a stuck-at fault
// whose skip-off replay takes the exact re-convergence exit, and a TMR
// detected hard fault (whose forward-recovery recheck runs a live main CPU
// on the Replayer's journaled scratch memory) with zero heap allocations
// per experiment. (Skipped under -race, whose instrumentation allocates.)
func TestInjectReplayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g, err := NewGolden(workload.ByName("puwmod"), 3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer()
	tmr := Mode{Kind: ModeTMR}

	type exp struct {
		inj    Injection
		mode   Mode
		noSkip bool
	}
	var exps []exp
	var haveConverged, haveDetected, haveMasked, haveSkip, haveExit, haveTMR bool
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
			// The faulty state starts equal to golden except at the
			// stuck flop, so a later first exposure means a jump.
			if kind.IsHard() && !haveSkip &&
				g.exposure(flop, cpu.LocOf(flop), kind == Stuck1, inj.Cycle, g.TotalCycles) > inj.Cycle {
				keep, haveSkip = true, true
			}
			if keep {
				exps = append(exps, exp{inj: inj})
			}
			if kind.IsHard() && out.Detected && !haveTMR {
				exps = append(exps, exp{inj: inj, mode: tmr})
				haveTMR = true
			}
			// A masked skip-off replay that stops short of the horizon
			// took the exit.
			if kind.IsHard() && !haveExit && rep.InjectModeNoSkip(g, inj, Mode{}, StopLatency) == (Outcome{}) &&
				rep.bus.Cycle() < g.TotalCycles {
				exps = append(exps, exp{inj: inj, noSkip: true})
				haveExit = true
			}
		}
		if haveConverged && haveDetected && haveMasked && haveSkip && haveExit && haveTMR {
			break
		}
	}
	if !haveDetected || !haveConverged || !haveMasked || !haveSkip || !haveExit || !haveTMR {
		t.Fatalf("could not find every case (detected %v converged %v masked %v skip %v exit %v tmr %v)",
			haveDetected, haveConverged, haveMasked, haveSkip, haveExit, haveTMR)
	}

	i := 0
	avg := testing.AllocsPerRun(100, func() {
		e := exps[i%len(exps)]
		if e.noSkip {
			rep.InjectModeNoSkip(g, e.inj, e.mode, StopLatency)
		} else {
			rep.InjectMode(g, e.inj, e.mode, StopLatency)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state replay allocates %.2f times per run, want 0", avg)
	}
}
