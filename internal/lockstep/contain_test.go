package lockstep

import (
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/mem"
	"lockstep/internal/workload"
)

// regFlops returns the flat flop indices of the named registry register.
func regFlops(t *testing.T, name string) []int {
	t.Helper()
	for ri, r := range cpu.Registry() {
		if r.Name != name {
			continue
		}
		var fs []int
		for b := 0; b < int(r.Width); b++ {
			fs = append(fs, cpu.FlopIndex(cpu.Flop{Reg: ri, Bit: uint8(b)}))
		}
		return fs
	}
	t.Fatalf("register %s not in the registry", name)
	return nil
}

// TestContainmentSoundness re-simulates, with the stuck-at skip off, every
// stuck-at and soft site of the two sealed SCU counters (CycCnt, RetCnt)
// and the write-only store latch (XMStore) on a cycle grid of the three
// reference kernels. Every stuck-at site must be pruned — no stock kernel
// executes rdcyc, so neither counter ever escapes — and every pruned site
// must simulate to exactly its prediction.
func TestContainmentSoundness(t *testing.T) {
	const (
		cycles    = 1200
		cycleStep = 53
	)
	rep := NewReplayer()
	for _, kn := range []string{"ttsprk", "rspeed", "puwmod"} {
		g, err := NewGolden(workload.ByName(kn), cycles, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range []string{"CycCnt", "RetCnt", "XMStore"} {
			checked := 0
			for _, f := range regFlops(t, reg) {
				for c := 0; c < cycles; c += cycleStep {
					for _, kind := range []FaultKind{SoftFlip, Stuck0, Stuck1} {
						inj := Injection{Flop: f, Kind: kind, Cycle: c}
						want, ok := g.PruneMode(inj, Mode{})
						if !ok {
							if kind.IsHard() {
								t.Errorf("%s: %s at %s cycle %d not pruned", kn, kind, cpu.FlopName(f), c)
							}
							continue
						}
						checked++
						if got := rep.InjectModeNoSkip(g, inj, Mode{}, StopLatency); got != want {
							t.Errorf("%s: pruned %s at %s cycle %d: predicted %+v, simulated %+v",
								kn, kind, cpu.FlopName(f), c, want, got)
						}
					}
				}
			}
			t.Logf("%s/%s: %d pruned sites re-simulated", kn, reg, checked)
		}
	}
}

// rdcycProbe is a test-only kernel that makes the cycle counter escape:
// every loop iteration copies CycCnt into a register with rdcyc and
// stores it to an actuator slot, so a stuck-at fault on the counter
// reaches the output port.
var rdcycProbe = &workload.Kernel{
	Name:        "rdcycprobe",
	Description: "stores the cycle counter to the actuator every iteration",
	Source: `
        .equ EXT,  0x80000000
        .equ DONE, 0x100
        li   r13, EXT
        li   r12, 0
outer:  inc  r12
        rdcyc r1
        sw   r1, 4(r13)
        sw   r12, DONE(r13)
        j    outer
`,
}

// TestContainmentRdcycProbe is the escape rule's counter-test: on a kernel
// that executes rdcyc, some CycCnt stuck-at faults are detected, and none
// of those may be pruned. The pruned ones must simulate to their
// prediction, like everywhere else.
func TestContainmentRdcycProbe(t *testing.T) {
	const cycles = 600
	g, err := NewGolden(rdcycProbe, cycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer()
	detected, pruned := 0, 0
	for _, f := range regFlops(t, "CycCnt") {
		for c := 0; c < cycles; c += 7 {
			for _, kind := range []FaultKind{Stuck0, Stuck1} {
				inj := Injection{Flop: f, Kind: kind, Cycle: c}
				got := rep.InjectModeNoSkip(g, inj, Mode{}, StopLatency)
				want, ok := g.PruneMode(inj, Mode{})
				if got.Detected {
					detected++
				}
				if !ok {
					continue
				}
				pruned++
				if got != want {
					t.Errorf("pruned %s at %s cycle %d: predicted %+v, simulated %+v",
						kind, cpu.FlopName(f), c, want, got)
				}
			}
		}
	}
	if detected == 0 {
		t.Fatal("no CycCnt stuck-at fault detected on the rdcyc probe; it does not exercise the escape rule")
	}
	if pruned == 0 {
		t.Fatal("no CycCnt stuck-at fault pruned on the rdcyc probe; the value-stability rule is not exercised")
	}
	t.Logf("%d CycCnt stuck-ats detected, %d pruned", detected, pruned)
}

// TestCounterOffsetExit gates the replay's counter-offset exit. Soft
// flips on every CycCnt and RetCnt flop, on a cycle grid of the rdcyc
// probe and of the three reference kernels, must reach one outcome on the
// fast path with the skip on (the only form that runs the exit), with it
// off, and on the dual-CPU oracle. On the probe, where CycCnt escapes
// through rdcyc, some CycCnt flips must be detected, so an exit that
// ignored the escape table would mask them; and the exit must fire, which
// shows as a Masked replay that stopped before the horizon.
func TestCounterOffsetExit(t *testing.T) {
	const cycles = 600
	rep := NewReplayer()
	sites, exits := 0, 0
	for _, k := range []*workload.Kernel{rdcycProbe, workload.ByName("ttsprk"), workload.ByName("rspeed"), workload.ByName("puwmod")} {
		g, err := NewGolden(k, cycles, 1)
		if err != nil {
			t.Fatal(err)
		}
		step := 37
		if k == rdcycProbe {
			step = 5
		}
		detected := 0
		for _, reg := range []string{"CycCnt", "RetCnt"} {
			for _, f := range regFlops(t, reg) {
				for c := 0; c < cycles; c += step {
					inj := Injection{Flop: f, Kind: SoftFlip, Cycle: c}
					got := rep.InjectMode(g, inj, Mode{}, StopLatency)
					if got == (Outcome{}) && rep.bus.Cycle() < cycles {
						exits++
					}
					noSkip := rep.InjectModeNoSkip(g, inj, Mode{}, StopLatency)
					legacy := g.InjectLegacyMode(inj, Mode{}, StopLatency)
					if got != noSkip || got != legacy {
						t.Errorf("%s: soft flip at %s cycle %d: skip on %+v, skip off %+v, dual-CPU oracle %+v",
							k.Name, cpu.FlopName(f), c, got, noSkip, legacy)
					}
					if got.Detected {
						detected++
					}
					sites++
				}
			}
		}
		if k == rdcycProbe && detected == 0 {
			t.Fatal("no counter flip detected on the rdcyc probe; it does not exercise the escape condition")
		}
		t.Logf("%s: %d counter flips detected", k.Name, detected)
	}
	if exits == 0 {
		t.Fatal("the counter-offset exit never fired")
	}
	t.Logf("%d soft counter flips, %d ended by the exit", sites, exits)
}

// syncTrajectory simulates a stuck-at experiment cycle by cycle, with
// neither the skip nor the re-convergence exit, until the outputs first
// differ from golden or limit is reached. It returns the cycles at whose
// top the faulty state equals golden exactly: the only cycles at which
// the exit may fire.
func syncTrajectory(g *Golden, bus *mem.ReplayBus, inj Injection, limit int) []int {
	bus.Seek(inj.Cycle)
	v := inj.Kind == Stuck1
	red := cpu.CPU{State: g.states[inj.Cycle], Bus: bus}
	cpu.ForceBit(&red.State, inj.Flop, v)
	var syncs []int
	for cyc := inj.Cycle; cyc < limit; cyc++ {
		if red.State.Outputs() != g.states[cyc].Outputs() {
			break
		}
		if red.State == g.states[cyc] {
			syncs = append(syncs, cyc)
		}
		bus.AdvanceTo(cyc + 1)
		red.StepCycle()
		cpu.ForceBit(&red.State, inj.Flop, v)
	}
	return syncs
}

// TestReconvergenceExit pins where the skip-off replay's exact
// re-convergence exit fires. For a grid of stuck-at sites it finds the
// exact re-syncs by plain simulation, then replays each site at the full
// horizon and at two horizons (as slip modes) placed around the cycle d
// at which golden F first leaves the stuck value after the first re-sync:
// horizon d+1, where the exit must not fire because golden F differs on
// the last compared cycle, and horizon d, where it must fire at that
// re-sync. The exit must fire exactly at the first re-sync from which
// golden F equals the stuck value up to the horizon, return Masked there,
// and agree with the dual-CPU oracle; everywhere else the replay must run
// to the horizon or to a detection.
func TestReconvergenceExit(t *testing.T) {
	const (
		cycles    = 1200
		flopStep  = 13
		cycleStep = 150
	)
	rep := NewReplayer()
	var bus mem.ReplayBus
	fired, boundary := 0, 0
	for _, kn := range []string{"ttsprk", "rspeed", "puwmod"} {
		g, err := NewGolden(workload.ByName(kn), cycles, 1)
		if err != nil {
			t.Fatal(err)
		}
		bus.Load(g.ram0, g.writes)
		settled := func(loc cpu.FlopLoc, v bool, from, to int) bool {
			for c := from; c < to; c++ {
				if loc.Bit(&g.states[c]) != v {
					return false
				}
			}
			return true
		}
		for f := 0; f < cpu.NumFlops(); f += flopStep {
			loc := cpu.LocOf(f)
			for c := 0; c < cycles; c += cycleStep {
				for _, kind := range []FaultKind{Stuck0, Stuck1} {
					inj := Injection{Flop: f, Kind: kind, Cycle: c}
					v := kind == Stuck1
					syncs := syncTrajectory(g, &bus, inj, cycles)
					horizons := []int{cycles}
					if len(syncs) > 0 {
						d := syncs[0]
						for d < cycles && loc.Bit(&g.states[d]) == v {
							d++
						}
						if d < cycles {
							horizons = append(horizons, d+1, d)
						}
					}
					for _, h := range horizons {
						mode := Mode{Kind: ModeSlip, Slip: cycles - h}
						want := -1
						for _, s := range syncs {
							if s >= h {
								break
							}
							if settled(loc, v, s, h) {
								want = s
								break
							}
						}
						got := rep.InjectModeNoSkip(g, inj, mode, StopLatency)
						stop := rep.bus.Cycle()
						switch {
						case want >= 0:
							fired++
							if got != (Outcome{}) || stop != want {
								t.Errorf("%s %s at %s cycle %d horizon %d: want the exit at cycle %d, got %+v stopping at %d",
									kn, kind, cpu.FlopName(f), c, h, want, got, stop)
							}
						case got == (Outcome{}) && stop != h:
							t.Errorf("%s %s at %s cycle %d horizon %d: masked at cycle %d, before the horizon, with no exit due",
								kn, kind, cpu.FlopName(f), c, h, stop)
						}
						if want >= 0 || h < cycles {
							boundary++
							if legacy := g.InjectLegacyMode(inj, mode, StopLatency); got != legacy {
								t.Errorf("%s %s at %s cycle %d horizon %d: replay %+v, dual-CPU oracle %+v",
									kn, kind, cpu.FlopName(f), c, h, got, legacy)
							}
						}
					}
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("the exit never fired; the grid does not exercise it")
	}
	t.Logf("exit fired on %d replays; %d replays checked against the dual-CPU oracle", fired, boundary)
}
