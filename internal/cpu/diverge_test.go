package cpu_test

import (
	"math/rand"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/workload"
)

// checkDiverge holds DivergeStates to Diverge of the two output vectors,
// in both argument orders.
func checkDiverge(t *testing.T, what string, a, b *cpu.State) {
	t.Helper()
	oa, ob := a.Outputs(), b.Outputs()
	want := cpu.Diverge(&oa, &ob)
	if got := cpu.DivergeStates(a, b); got != want {
		t.Fatalf("%s: DivergeStates %#x, Diverge of the output vectors %#x", what, got, want)
	}
	if got := cpu.DivergeStates(b, a); got != want {
		t.Fatalf("%s: DivergeStates with the arguments swapped %#x, Diverge of the output vectors %#x",
			what, got, want)
	}
}

// outputStrobes returns the output strobes of s, each of which qualifies
// a payload in Outputs.
func outputStrobes(s *cpu.State) []*bool {
	return []*bool{&s.IReqValid, &s.DRe, &s.DWe, &s.ExtBusy, &s.ExtRe, &s.ExtWe, &s.MWValid, &s.MWWen, &s.ExcValid}
}

// TestDivergeStatesMatchesOutputs holds the replay's checker map to the
// oracles': DivergeStates(a, b) must equal Diverge(a.Outputs(),
// b.Outputs()) in both argument orders. On warm states of all 13 kernels,
// on a cycle grid, it applies every single-flop flip and both forces, and
// checks each pair of consecutive states of the run. On random pairs of
// field-valued states it sets every output strobe of both sides at
// random, so each qualification is seen both ways, once with unrelated
// payloads and once with payloads mostly shared.
func TestDivergeStatesMatchesOutputs(t *testing.T) {
	const (
		cycles   = 900
		gridStep = 300
		pairs    = 100000
	)
	for _, k := range workload.Kernels() {
		sys, entry, err := k.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(sys, entry)
		for cyc := 1; cyc <= cycles; cyc++ {
			prev := c.State
			c.StepCycle()
			checkDiverge(t, k.Name+" consecutive states", &prev, &c.State)
			if cyc%gridStep != 0 {
				continue
			}
			base := c.State
			for f := 0; f < cpu.NumFlops(); f++ {
				for _, mut := range []struct {
					name  string
					apply func(*cpu.State)
				}{
					{"flip", func(s *cpu.State) { cpu.FlipBit(s, f) }},
					{"force0", func(s *cpu.State) { cpu.ForceBit(s, f, false) }},
					{"force1", func(s *cpu.State) { cpu.ForceBit(s, f, true) }},
				} {
					s := base
					mut.apply(&s)
					checkDiverge(t, k.Name+" "+mut.name+" "+cpu.FlopName(f), &s, &base)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	randomize := func(s *cpu.State, regs []cpu.Reg) {
		for _, r := range regs {
			r.Set(s, rng.Uint32())
		}
	}
	regs := cpu.Registry()
	for i := 0; i < pairs; i++ {
		var a, b cpu.State
		randomize(&a, regs)
		if i%2 == 0 {
			randomize(&b, regs)
		} else {
			b = a
			for j := 0; j < 3; j++ {
				r := regs[rng.Intn(len(regs))]
				r.Set(&b, rng.Uint32())
			}
		}
		m := rng.Uint32()
		for j, p := range outputStrobes(&a) {
			*p = m>>j&1 != 0
		}
		for j, p := range outputStrobes(&b) {
			*p = m>>(j+16)&1 != 0
		}
		checkDiverge(t, "random pair", &a, &b)
	}
}
