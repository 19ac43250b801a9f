package lockstep

import (
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/mem"
	"lockstep/internal/workload"
)

// mpuProbe is a test-only kernel that reads the MPU registers back
// through the system-register window every iteration and stores their sum
// to an actuator slot, so an MPU register reaches the output port through
// a load, not only through the access decision.
var mpuProbe = &workload.Kernel{
	Name:        "mpuprobe",
	Description: "reads the MPU configuration back every iteration",
	Source: `
        .equ EXT,  0x80000000
        .equ DONE, 0x100
        li   r13, EXT
        li   r1, MPUWIN
        li   r12, 0
outer:  inc  r12
        lw   r2, 0(r1)
        lw   r3, 4(r1)
        lw   r4, 8(r1)
        lw   r5, 20(r1)
        add  r6, r2, r3
        add  r6, r6, r4
        add  r6, r6, r5
        sw   r6, 4(r13)
        sw   r12, DONE(r13)
        j    outer
`,
}

// TestObservationPremise checks the first step of the pruning induction
// directly, for every stream: a flop that the liveness tables call
// unobserved at cycle c can be flipped in states[c] without changing
// Outputs() at c, and one step from the flipped state on a ReplayBus at c
// lands on states[c+1] except at that flop. The same must hold for every
// MPU flop at a load or store whose decision forcing it does not flip
// (mpuSensitive), the refinement the stuck-at skip applies in exposure.
// It runs on the three reference kernels, two more stock kernels and
// mpuProbe, on every cycle of the kernel's start (the MPU programming
// included) and on a grid after it.
func TestObservationPremise(t *testing.T) {
	const (
		cycles   = 1200
		dense    = 240 // every cycle below this one is checked
		gridStep = 11
	)
	mpuFlop := make([]bool, cpu.NumFlops())
	for f := range mpuFlop {
		st := int(lvTables.stream[f])
		mpuFlop[f] = st >= lvMPUAttr && st < lvReg1
	}
	kernels := []*workload.Kernel{mpuProbe}
	for _, kn := range []string{"ttsprk", "rspeed", "puwmod", "a2time", "canrdr"} {
		k := workload.ByName(kn)
		if k == nil {
			t.Fatalf("no kernel %s", kn)
		}
		kernels = append(kernels, k)
	}
	for _, k := range kernels {
		g, err := NewGolden(k, cycles, 1)
		if err != nil {
			t.Fatal(err)
		}
		var bus mem.ReplayBus
		bus.Load(g.ram0, g.writes)
		var red, next cpu.State
		checked, mpuChecked := 0, 0
		for c := 0; c < cycles; c++ {
			if c >= dense && c%gridStep != 0 {
				continue
			}
			gold := &g.states[c]
			goldOut := gold.Outputs()
			bus.Seek(c)
			bus.AdvanceTo(c + 1)
			for f := range mpuFlop {
				loc := cpu.LocOf(f)
				v := !loc.Bit(gold)
				switch {
				case !g.live.observed(f, c):
					checked++
				case mpuFlop[f] && !mpuSensitive(gold, loc, v):
					mpuChecked++
				default:
					continue
				}
				red = *gold
				loc.Force(&red, v)
				if red.Outputs() != goldOut {
					t.Errorf("%s cycle %d: flipping unobserved %s changes the outputs", k.Name, c, cpu.FlopName(f))
					continue
				}
				cpu.StepInto(&next, &red, &bus)
				if rest, _ := cpu.DiffExcept(&next, &g.states[c+1], loc); rest != 0 {
					t.Errorf("%s cycle %d: flipping unobserved %s reaches another flop: %s",
						k.Name, c, cpu.FlopName(f), firstDiff(&next, &g.states[c+1], f))
				}
			}
		}
		if mpuChecked == 0 {
			t.Errorf("%s: no MPU flop checked at an access it cannot flip", k.Name)
		}
		t.Logf("%s: %d unobserved and %d MPU-insensitive sites checked", k.Name, checked, mpuChecked)
	}
}

// firstDiff names the first flop other than skip in which a and b differ.
func firstDiff(a, b *cpu.State, skip int) string {
	for f := 0; f < cpu.NumFlops(); f++ {
		if f != skip && cpu.GetBit(a, f) != cpu.GetBit(b, f) {
			return cpu.FlopName(f)
		}
	}
	return "padding"
}
