package cpu

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSCNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumSC; i++ {
		name := SCName(i)
		if name == "" {
			t.Fatalf("SC %d unnamed", i)
		}
		if seen[name] {
			t.Fatalf("duplicate SC name %q", name)
		}
		seen[name] = true
	}
}

func TestSCWidthsSumToPortBits(t *testing.T) {
	sum := 0
	for i := 0; i < NumSC; i++ {
		w := scWidth(i)
		if w <= 0 || w > 8 {
			t.Fatalf("SC %d width %d", i, w)
		}
		sum += w
	}
	if sum != OutputPortBits() {
		t.Fatalf("SC widths sum %d != port bits %d", sum, OutputPortBits())
	}
	// The port is a meaningful fraction of a bus-level interface: three
	// 32-bit address/data pairs plus trace and status.
	if sum < 250 || sum > 400 {
		t.Fatalf("port bits %d outside plausible range", sum)
	}
}

func TestDivergeSelfIsZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s State
		for _, r := range Registry() {
			r.Set(&s, rng.Uint32())
		}
		o := s.Outputs()
		return Diverge(&o, &o) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDivergeSymmetric(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		mk := func(seed int64) OutVec {
			rng := rand.New(rand.NewSource(seed))
			var s State
			for _, r := range Registry() {
				r.Set(&s, rng.Uint32())
			}
			return s.Outputs()
		}
		a, b := mk(seedA), mk(seedB)
		return Diverge(&a, &b) == Diverge(&b, &a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQualifiedComparisonGatesPayloads: with the valid strobes low, the
// payload buses are not compared — stale data-port or trace values cannot
// raise a divergence on their own.
func TestQualifiedComparisonGatesPayloads(t *testing.T) {
	var a, b State
	a.Reset(0)
	b.Reset(0)

	// Stale data-port registers differ, strobes idle: no divergence.
	a.DAddr, b.DAddr = 0x1000, 0x2000
	a.DWData, b.DWData = 1, 2
	a.MWPC, b.MWPC = 0x40, 0x80 // retire trace invalid
	a.EPC, b.EPC = 0x1, 0x2     // no exception
	oa, ob := a.Outputs(), b.Outputs()
	if d := Diverge(&oa, &ob); d != 0 {
		t.Fatalf("idle payloads compared: map %#x", d)
	}

	// Raise the strobe on one side: both the strobe SC and the payload
	// SCs diverge.
	a.DRe = true
	oa = a.Outputs()
	d := Diverge(&oa, &ob)
	if d&(1<<SCDCtlRW) == 0 {
		t.Fatal("strobe divergence not flagged")
	}
	if d&(0xFF<<SCDAddr0) == 0 {
		t.Fatal("payload not compared once qualified")
	}

	// Both strobes high: payload difference alone diverges.
	b.DRe = true
	oa, ob = a.Outputs(), b.Outputs()
	d = Diverge(&oa, &ob)
	if d&(1<<SCDCtlRW) != 0 {
		t.Fatal("strobes agree but flagged")
	}
	if d&(0xFF<<SCDAddr0) == 0 {
		t.Fatal("qualified payload difference missed")
	}
}

func TestTraceGatedByRetire(t *testing.T) {
	var a, b State
	a.MWVal, b.MWVal = 10, 20
	a.MWWen, b.MWWen = true, true
	oa, ob := a.Outputs(), b.Outputs()
	if Diverge(&oa, &ob) != 0 {
		t.Fatal("invalid retire slot compared")
	}
	a.MWValid, b.MWValid = true, true
	oa, ob = a.Outputs(), b.Outputs()
	if Diverge(&oa, &ob)&(0xFF<<SCWBData0) == 0 {
		t.Fatal("valid writeback value not compared")
	}
}

func TestExceptionOutputsGated(t *testing.T) {
	var a, b State
	a.EPC, b.EPC = 0x100, 0x200
	a.ExcCause, b.ExcCause = 1, 2
	oa, ob := a.Outputs(), b.Outputs()
	if Diverge(&oa, &ob) != 0 {
		t.Fatal("exception payload compared while no exception")
	}
	a.ExcValid = true
	oa = a.Outputs()
	d := Diverge(&oa, &ob)
	if d&(1<<SCExcValid) == 0 || d&(0xF<<SCEPC0) == 0 {
		t.Fatalf("exception divergence map %#x", d)
	}
}

func TestHaltedVisible(t *testing.T) {
	var a, b State
	a.Halted = true
	oa, ob := a.Outputs(), b.Outputs()
	if Diverge(&oa, &ob)&(1<<SCHalted) == 0 {
		t.Fatal("halted status not compared")
	}
}

func TestDumpSmoke(t *testing.T) {
	var s State
	s.Reset(0x40)
	var buf1 strings.Builder
	s.Dump(&buf1)
	if !strings.Contains(buf1.String(), "pc=0x00000040") {
		t.Fatalf("dump missing PC:\n%s", buf1.String())
	}
	// Populate some state and re-dump.
	s.DXValid = true
	s.DXInstr = 0x04400001 // some instruction word
	s.MulBusy = true
	s.ExcValid = true
	s.ExcCause = CauseMPU
	s.MPUAttr[0] = 3
	s.MPULimit[0] = 0x3FFFF
	var buf2 strings.Builder
	s.Dump(&buf2)
	out := buf2.String()
	for _, m := range []string{"mul busy", "EXC cause=5", "mpu0"} {
		if !strings.Contains(out, m) {
			t.Errorf("dump missing %q", m)
		}
	}
}
