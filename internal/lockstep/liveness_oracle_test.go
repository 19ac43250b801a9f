package lockstep

import (
	"fmt"
	"math/bits"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/workload"
)

// This file keeps the forward liveness builder NewGolden used before the
// backward scan (newLiveness) replaced it, as the oracle the scan is held
// to (TestLivenessMatchesForwardBuilder). It reads every register through
// the registry's accessor closures on every cycle and tracks each flop's
// value segments, so it shares neither the word view nor the scan with
// the code under test.

// livenessBuilder accumulates the pruning table during the golden
// recording pass. Per cycle it costs one registry value sweep (to detect
// flop transitions) plus one stream-condition evaluation; the per-flop
// lastVal tables are maintained incrementally from value segments, so the
// whole analysis is a small constant factor on NewGolden.
type livenessBuilder struct {
	lv       *liveness
	regBase  []int    // registry index -> first flat flop index
	prev     []uint32 // registry index -> value at the previously recorded cycle
	segStart []int32  // flop -> first cycle of its current value segment
	lastObs  [numStreams]int32
}

func newLivenessBuilder(totalCycles int) *livenessBuilder {
	regs := cpu.Registry()
	n := cpu.NumFlops()
	lv := &liveness{cycles: totalCycles, stream: make([]uint8, n), escLast: make([]int32, n)}
	lv.lastVal[0] = make([]int32, n)
	lv.lastVal[1] = make([]int32, n)
	for i := range lv.lastVal[0] {
		lv.lastVal[0][i] = -1
		lv.lastVal[1][i] = -1
	}
	b := &livenessBuilder{
		lv:       lv,
		regBase:  make([]int, len(regs)),
		prev:     make([]uint32, len(regs)),
		segStart: make([]int32, n),
	}
	for ri, r := range regs {
		base := cpu.FlopIndex(cpu.Flop{Reg: ri})
		b.regBase[ri] = base
		st := streamForReg(r.Name)
		for bit := 0; bit < int(r.Width); bit++ {
			lv.stream[base+bit] = uint8(st)
		}
	}
	words := (totalCycles + 63) / 64
	for st := range lv.obs {
		if st != lvAlways && st != lvNever {
			lv.obs[st] = make([]uint64, words)
		}
	}
	for st := range b.lastObs {
		b.lastObs[st] = -1
	}
	return b
}

// record folds one golden end-of-cycle state into the analysis, with
// reads the register-file read set of the step from it
// (cpu.StepIntoReads). It must be called for cyc = 0 (reset state)
// through totalCycles in order; the final call only closes value
// segments, since cycle totalCycles is never compared or stepped from by
// the injection loop.
func (b *livenessBuilder) record(s *cpu.State, cyc int, reads uint16) {
	regs := cpu.Registry()
	if cyc == 0 {
		for ri := range regs {
			b.prev[ri] = regs[ri].Get(s)
		}
	} else {
		for ri := range regs {
			cur := regs[ri].Get(s)
			old := b.prev[ri]
			diff := old ^ cur
			if diff == 0 {
				continue
			}
			b.prev[ri] = cur
			base := b.regBase[ri]
			for d := diff; d != 0; d &= d - 1 {
				bit := bits.TrailingZeros32(d)
				f := base + bit
				// The segment holding the old value ends at cyc-1; its
				// last observed cycle, if any, is the stream's lastObs
				// (obs marks for cyc happen after this loop, so lastObs
				// is still <= cyc-1 here).
				if lo := b.lastObs[b.lv.stream[f]]; lo >= b.segStart[f] {
					b.lv.lastVal[old>>uint(bit)&1][f] = lo
				}
				b.segStart[f] = int32(cyc)
			}
		}
	}
	if cyc >= b.lv.cycles {
		return
	}
	for m := liveStreamMask(s, reads); m != 0; m &= m - 1 {
		st := bits.TrailingZeros64(m)
		b.lastObs[st] = int32(cyc)
		if w := b.lv.obs[st]; w != nil {
			w[cyc>>6] |= 1 << (uint(cyc) & 63)
		}
	}
}

// finish closes every flop's final value segment, fills in the escape
// table and returns the completed table.
func (b *livenessBuilder) finish() *liveness {
	regs := cpu.Registry()
	for ri := range regs {
		base, v := b.regBase[ri], b.prev[ri]
		var esc int32
		switch st := escapeForReg(regs[ri].Name); st {
		case lvAlways:
			esc = int32(b.lv.cycles)
		case lvNever:
			esc = -1
		default:
			esc = b.lastObs[st]
		}
		for bit := 0; bit < int(regs[ri].Width); bit++ {
			f := base + bit
			if lo := b.lastObs[b.lv.stream[f]]; lo >= b.segStart[f] {
				b.lv.lastVal[v>>uint(bit)&1][f] = lo
			}
			b.lv.escLast[f] = esc
		}
	}
	return b.lv
}

// TestLivenessMatchesForwardBuilder holds the liveness tables NewGolden
// derives (newLiveness: a forward pass over the stream masks and a
// backward scan of the recorded states) to the forward builder above, fed
// the states and register read sets of its own live run of the kernel on
// a mem.System, which must reproduce the recorded states: on every
// kernel, at horizons 1, 63, 64 and 65 (around the first
// observation-bitmap word boundary) and 6,000 (the campaign horizon), the
// stream map, every observation bitmap, both lastVal tables and the
// escape table must be equal. The builder takes the same read set as
// NewGolden (cpu.StepIntoReads), so TestObservationPremise is the
// independent check of the register streams.
func TestLivenessMatchesForwardBuilder(t *testing.T) {
	for _, k := range workload.Kernels() {
		for _, cycles := range []int{1, 63, 64, 65, 6000} {
			g, err := NewGolden(k, cycles, 1)
			if err != nil {
				t.Fatal(err)
			}
			sys, entry, err := k.NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			b := newLivenessBuilder(cycles)
			var cur, next cpu.State
			cur.Reset(entry)
			for c := 0; c <= cycles; c++ {
				if cur != g.states[c] {
					t.Fatalf("%s: live run leaves the recorded state at cycle %d", k.Name, c)
				}
				reads := cpu.StepIntoReads(&next, &cur, sys)
				b.record(&cur, c, reads)
				cur = next
			}
			if err := livenessDiff(g.live, b.finish()); err != nil {
				t.Errorf("%s at %d cycles: %v", k.Name, cycles, err)
			}
		}
	}
}

// livenessDiff names the first entry in which got and want differ.
func livenessDiff(got, want *liveness) error {
	if got.cycles != want.cycles {
		return fmt.Errorf("cycles %d, want %d", got.cycles, want.cycles)
	}
	flop := func(i int) string { return cpu.FlopName(i) }
	if err := tableDiff("stream", got.stream, want.stream, flop); err != nil {
		return err
	}
	for st := range got.obs {
		if (got.obs[st] == nil) != (want.obs[st] == nil) {
			return fmt.Errorf("stream %d has a bitmap: %v, want %v", st, got.obs[st] != nil, want.obs[st] != nil)
		}
		word := func(i int) string { return fmt.Sprintf("word %d", i) }
		if err := tableDiff(fmt.Sprintf("stream %d bitmap", st), got.obs[st], want.obs[st], word); err != nil {
			return err
		}
	}
	for b := range got.lastVal {
		if err := tableDiff(fmt.Sprintf("lastVal[%d]", b), got.lastVal[b], want.lastVal[b], flop); err != nil {
			return err
		}
	}
	return tableDiff("escLast", got.escLast, want.escLast, flop)
}

func tableDiff[T comparable](name string, got, want []T, label func(int) string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d entries, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s of %s is %v, want %v", name, label(i), got[i], want[i])
		}
	}
	return nil
}
