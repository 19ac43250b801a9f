package cpu

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"lockstep/internal/mem"
	"lockstep/internal/units"
)

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Registry() {
		if r.Name == "" {
			t.Fatal("unnamed register")
		}
		if seen[r.Name] {
			t.Fatalf("duplicate register name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Width == 0 || r.Width > 32 {
			t.Fatalf("%s: width %d", r.Name, r.Width)
		}
		if !r.Unit.Valid() || !r.Fine.Valid() {
			t.Fatalf("%s: bad unit tags", r.Name)
		}
		if r.Fine.Coarse() != r.Unit {
			t.Fatalf("%s: fine %v does not map to coarse %v", r.Name, r.Fine, r.Unit)
		}
	}
}

// TestRegistryGetSetRoundTrip: every register stores and returns arbitrary
// patterns masked to its width, without touching other registers.
func TestRegistryGetSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ri, r := range Registry() {
		var s State
		pattern := rng.Uint32()
		r.Set(&s, pattern)
		mask := uint32(1)<<r.Width - 1
		if r.Width == 32 {
			mask = ^uint32(0)
		}
		if got := r.Get(&s); got != pattern&mask {
			t.Fatalf("%s: set %#x, got %#x (mask %#x)", r.Name, pattern, got, mask)
		}
		// No other register changed.
		for rj, other := range Registry() {
			if rj != ri && other.Get(&s) != 0 {
				t.Fatalf("setting %s leaked into %s", r.Name, other.Name)
			}
		}
	}
}

// TestFlipBitInvolution: flipping the same flop twice restores the state.
func TestFlipBitInvolution(t *testing.T) {
	f := func(flopRaw uint32, seed int64) bool {
		flop := int(flopRaw) % NumFlops()
		rng := rand.New(rand.NewSource(seed))
		var s State
		for _, r := range Registry() {
			r.Set(&s, rng.Uint32())
		}
		orig := s
		FlipBit(&s, flop)
		if s == orig {
			return false // must change something
		}
		FlipBit(&s, flop)
		return s == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestForceBitIdempotent: forcing is idempotent and GetBit observes it.
func TestForceBitIdempotent(t *testing.T) {
	f := func(flopRaw uint32, v bool) bool {
		flop := int(flopRaw) % NumFlops()
		var s State
		ForceBit(&s, flop, v)
		once := s
		ForceBit(&s, flop, v)
		return s == once && GetBit(&s, flop) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlopIndexBijection(t *testing.T) {
	for i := 0; i < NumFlops(); i++ {
		if got := FlopIndex(FlopAt(i)); got != i {
			t.Fatalf("flop %d round-trips to %d", i, got)
		}
	}
}

func TestFlopCountsConsistent(t *testing.T) {
	var unitSum, fineSum int
	for u := 0; u < units.NumUnits; u++ {
		unitSum += UnitFlops(units.Unit(u))
	}
	for f := 0; f < units.NumFine; f++ {
		fineSum += FineFlops(units.Fine(f))
	}
	if unitSum != NumFlops() || fineSum != NumFlops() {
		t.Fatalf("unit sum %d, fine sum %d, total %d", unitSum, fineSum, NumFlops())
	}
	// DPU coarse = sum of its fine sub-units.
	var dpu int
	for f := units.FineDPUDecode; f < units.NumFine; f++ {
		dpu += FineFlops(f)
	}
	if dpu != UnitFlops(units.DPU) {
		t.Fatalf("DPU fine sum %d != coarse %d", dpu, UnitFlops(units.DPU))
	}
	// Every unit has some state.
	for u := 0; u < units.NumUnits; u++ {
		if UnitFlops(units.Unit(u)) == 0 {
			t.Fatalf("unit %v has no flops", units.Unit(u))
		}
	}
}

// TestRegistryWidthAccounting cross-checks the registry's total width
// against a manual census of the State struct: every injectable bit is
// registered exactly once (the paper's methodology requires covering
// every flip-flop).
func TestRegistryWidthAccounting(t *testing.T) {
	// Architectural census of State (see state.go):
	want := 0
	want += 32 + 2*32 + 2*32 + 2*1 + 1       // PFU: PC, FQInstr, FQPC, FQValid, FQHead
	want += 32 + 1 + 32                      // IMC
	want += 6 + 4 + 32 + 32 + 32 + 1         // DPU decode
	want += 32 + 32 + 4 + 4                  // DPU operand
	want += 15 * 32                          // DPU regfile (R0 hardwired)
	want += 6 + 4 + 32 + 32 + 32 + 32 + 1    // DPU ALU latch
	want += 1 + 32 + 32 + 1                  // DPU mul
	want += 1 + 5 + 32 + 32 + 32 + 1 + 1 + 1 // DPU div
	want += 4 + 32 + 32 + 32 + 1 + 1         // DPU retire
	want += 32 + 32 + 4 + 1 + 1              // LSU
	want += 32 + 32 + 4 + 1 + 1 + 32         // DMC
	want += 32 + 32 + 4 + 1 + 1 + 1 + 2 + 32 // BIU
	want += 32 + 32 + 1 + 1 + 3 + 32         // SCU core
	want += MPURegions * (32 + 32 + 2)       // SCU MPU
	if NumFlops() != want {
		t.Fatalf("registry covers %d flops, census says %d", NumFlops(), want)
	}
	// The State struct itself should not dwarf the census (a new field
	// would likely change the size; this is a tripwire, not an exact
	// check).
	if unsafe.Sizeof(State{}) > 1024 {
		t.Fatalf("State grew to %d bytes; update the registry and census", unsafe.Sizeof(State{}))
	}
}

// TestStepTotalOnRandomStates: fault injection can leave the CPU in any
// state the registry can express; Step must be total (no panics, no
// out-of-range anything) from every such state.
func TestStepTotalOnRandomStates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sys := mem.NewSystem()
	for trial := 0; trial < 300; trial++ {
		var s State
		for _, r := range Registry() {
			r.Set(&s, rng.Uint32())
		}
		for i := 0; i < 25; i++ {
			Step(&s, sys)
			_ = s.Outputs()
		}
	}
}

func TestFlopNameFormat(t *testing.T) {
	if name := FlopName(0); name != "PC[0]" {
		t.Fatalf("first flop name %q", name)
	}
}

func TestFlopUnitTagging(t *testing.T) {
	for i := 0; i < NumFlops(); i++ {
		if FlopFine(i).Coarse() != FlopUnit(i) {
			t.Fatalf("flop %d: inconsistent unit tags", i)
		}
	}
}

// EqualExcept reports whether a and b hold equal values in every flop
// except the one at l. It briefly writes b's value of that flop into a
// and restores it, so the caller must own a. It is the reference the
// word pass's "equal except F" answer is held to (TestDiffWordsMatchesCompares).
func (l FlopLoc) EqualExcept(a, b *State) bool {
	p := stateByte(a, l.Off)
	old := *p
	*p = old&^l.Mask | *stateByte(b, l.Off)&l.Mask
	eq := *a == *b
	*p = old
	return eq
}

// TestFlopLocMatchesAccessors holds every flop's byte location to the
// registry's accessor closures: on a reset and a warmed-up state, Bit
// reads what GetBit reads, Force writes what ForceBit writes, FlipBit
// changes exactly the located bit, EqualExcept ignores that flop and no
// other, and the word view maps the located bit back to the flop.
func TestFlopLocMatchesAccessors(t *testing.T) {
	var reset State
	reset.Reset(0)
	c := New(mem.NewSystem(), 0)
	for i := 0; i < 200; i++ {
		c.StepCycle()
	}
	other := 0 // a flop in a different register, for the negative case
	for name, base := range map[string]State{"reset": reset, "warm": c.State} {
		for i := 0; i < NumFlops(); i++ {
			l := LocOf(i)
			if l.Off >= unsafe.Sizeof(State{}) || l.Mask == 0 || l.Mask&(l.Mask-1) != 0 {
				t.Fatalf("%s: %s has location %+v", name, FlopName(i), l)
			}
			if l.Bit(&base) != GetBit(&base, i) {
				t.Fatalf("%s: %s: Bit %v, GetBit %v", name, FlopName(i), l.Bit(&base), GetBit(&base, i))
			}
			for _, v := range []bool{false, true} {
				want, got := base, base
				ForceBit(&want, i, v)
				l.Force(&got, v)
				if got != want || *(*[unsafe.Sizeof(State{})]byte)(unsafe.Pointer(&got)) !=
					*(*[unsafe.Sizeof(State{})]byte)(unsafe.Pointer(&want)) {
					t.Fatalf("%s: Force(%s, %v) differs from ForceBit", name, FlopName(i), v)
				}
			}
			if w, bit := l.Word(); FlopOfBit(w*64+bits.TrailingZeros64(bit)) != i {
				t.Fatalf("%s: the word view maps %s's bit to flop %d", name, FlopName(i),
					FlopOfBit(w*64+bits.TrailingZeros64(bit)))
			}
			s := base
			FlipBit(&s, i)
			if l.Bit(&s) == l.Bit(&base) {
				t.Fatalf("%s: FlipBit(%s) left its located bit unchanged", name, FlopName(i))
			}
			ob := (*[unsafe.Sizeof(State{})]byte)(unsafe.Pointer(&base))
			nb := (*[unsafe.Sizeof(State{})]byte)(unsafe.Pointer(&s))
			for off := range ob {
				diff := ob[off] ^ nb[off]
				if uintptr(off) == l.Off && diff != l.Mask || uintptr(off) != l.Off && diff != 0 {
					t.Fatalf("%s: FlipBit(%s) changed byte %d by %#x, location %+v", name, FlopName(i), off, diff, l)
				}
			}
			if !l.EqualExcept(&s, &base) || !l.EqualExcept(&base, &s) {
				t.Fatalf("%s: EqualExcept(%s) saw the flop it must ignore", name, FlopName(i))
			}
			if s == base {
				t.Fatalf("%s: EqualExcept(%s) did not restore its first argument", name, FlopName(i))
			}
			for FlopAt(other).Reg == FlopAt(i).Reg {
				other = (other + 7) % NumFlops()
			}
			if LocOf(other).EqualExcept(&s, &base) {
				t.Fatalf("%s: EqualExcept(%s) ignored a flip of %s", name, FlopName(other), FlopName(i))
			}
		}
	}
}
