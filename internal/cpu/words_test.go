package cpu_test

import (
	"testing"
	"unsafe"

	"lockstep/internal/cpu"
	"lockstep/internal/workload"
)

// checkDiff holds one DiffWords pass over a and b to the compares it
// replaces: with the field mask, a zero rest is exactly a == b; with that
// mask minus the flop at l, it is exactly l.EqualExcept(a, b); and a zero
// outs implies equal output vectors.
func checkDiff(t *testing.T, what string, a, b *cpu.State, l cpu.FlopLoc) {
	t.Helper()
	all := cpu.FieldMask()
	except := all.Except(l)
	rest, outs := cpu.DiffWords(a, b, &all)
	if (rest == 0) != (*a == *b) {
		t.Fatalf("%s: word pass says equal=%v, == says %v", what, rest == 0, *a == *b)
	}
	if outs == 0 && a.Outputs() != b.Outputs() {
		t.Fatalf("%s: word pass says the output fields agree, Outputs() differ", what)
	}
	rest, outs2 := cpu.DiffWords(a, b, &except)
	if eq := l.EqualExcept(a, b); (rest == 0) != eq {
		t.Fatalf("%s: word pass says equal except the flop=%v, EqualExcept says %v", what, rest == 0, eq)
	}
	if outs2 != outs {
		t.Fatalf("%s: the output-field answer depends on the mask", what)
	}
}

// TestDiffWordsMatchesCompares holds the one-pass word compare to ==,
// FlopLoc.EqualExcept and Outputs() equality. On warm states of several
// kernels it applies every single-flop flip and both forces through the
// registry accessors and checks the pass on each result, and on each pair
// of consecutive states of the run. With every output strobe asserted it
// also checks that the output-field mask is exact: a flip changes
// Outputs() precisely when the pass reports an output-field difference.
func TestDiffWordsMatchesCompares(t *testing.T) {
	if cpu.StateWords*8 != int(unsafe.Sizeof(cpu.State{})) {
		t.Fatalf("%d words do not cover the %d-byte State", cpu.StateWords, unsafe.Sizeof(cpu.State{}))
	}
	for _, kn := range []string{"ttsprk", "rspeed", "puwmod", "canrdr", "a2time"} {
		k := workload.ByName(kn)
		if k == nil {
			t.Fatalf("no kernel %q", kn)
		}
		sys, entry, err := k.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(sys, entry)
		for cyc := 1; cyc <= 900; cyc++ {
			prev := c.State
			c.StepCycle()
			checkDiff(t, kn+" consecutive states", &prev, &c.State, cpu.LocOf(cyc%cpu.NumFlops()))
			if cyc%300 != 0 {
				continue
			}
			base := c.State
			for f := 0; f < cpu.NumFlops(); f++ {
				l := cpu.LocOf(f)
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
					checkDiff(t, kn+" "+mut.name+" "+cpu.FlopName(f), &s, &base, l)
					// Against another flop's exception too: the flipped
					// flop must then count.
					checkDiff(t, kn+" "+mut.name+" "+cpu.FlopName(f)+" vs other", &s, &base,
						cpu.LocOf((f+97)%cpu.NumFlops()))
				}
			}
		}
	}

	var strobed cpu.State
	strobed.IReqValid, strobed.DRe, strobed.DWe = true, true, true
	strobed.ExtBusy, strobed.ExtWe = true, true
	strobed.MWValid, strobed.MWWen, strobed.ExcValid = true, true, true
	all := cpu.FieldMask()
	for f := 0; f < cpu.NumFlops(); f++ {
		s := strobed
		cpu.FlipBit(&s, f)
		_, outs := cpu.DiffWords(&s, &strobed, &all)
		if changed := s.Outputs() != strobed.Outputs(); changed != (outs != 0) {
			t.Errorf("%s: flip changes Outputs()=%v, word pass reports an output-field difference=%v",
				cpu.FlopName(f), changed, outs != 0)
		}
	}
}

// TestFieldMaskSkipsPadding: a State whose padding bytes hold garbage is
// still == to the original, and the field-masked word pass agrees; the
// word view maps a flop to each of the NumFlops set bits and to no other.
func TestFieldMaskSkipsPadding(t *testing.T) {
	all := cpu.FieldMask()
	var base cpu.State
	base.Reset(0x40)
	s := base
	raw := (*[unsafe.Sizeof(cpu.State{})]byte)(unsafe.Pointer(&s))
	pads := 0
	for off := range raw {
		var probe cpu.State
		(*[unsafe.Sizeof(cpu.State{})]byte)(unsafe.Pointer(&probe))[off] = 0xFF
		if rest, _ := cpu.DiffWords(&probe, &cpu.State{}, &all); rest == 0 {
			raw[off] = 0xA5
			pads++
		}
	}
	if pads == 0 {
		t.Fatal("State has no padding bytes; the padding check checks nothing")
	}
	if s != base {
		t.Fatal("a padding byte changed ==; the field mask misses a field")
	}
	if rest, outs := cpu.DiffWords(&s, &base, &all); rest != 0 || outs != 0 {
		t.Fatalf("padding garbage counted by the word pass (rest %#x, outs %#x)", rest, outs)
	}
	flops := 0
	for i := 0; i < cpu.StateWords*64; i++ {
		if f := cpu.FlopOfBit(i); f >= 0 {
			flops++
			if w, bit := cpu.LocOf(f).Word(); w != i/64 || bit != 1<<(i%64) {
				t.Fatalf("bit %d maps to %s, which lives at word %d mask %#x", i, cpu.FlopName(f), w, bit)
			}
		}
	}
	if flops != cpu.NumFlops() {
		t.Fatalf("the word view holds %d flops, the registry %d", flops, cpu.NumFlops())
	}
	t.Logf("%d padding bytes", pads)
}
