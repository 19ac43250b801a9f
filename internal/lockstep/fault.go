package lockstep

import "lockstep/internal/cpu"

// fault is the fault model of Section IV-A on a live CPU, and the only
// code that flips or forces a flop of one: DMR and TMR hold their
// injections with it, and so do the oracle paths, which run a DMR
// restored from the golden run (restoreDMR). A soft fault inverts its
// flop after the clock edge that ends the injection's cycle and recovers
// once, after the next edge, to the bit a fault-free reference CPU holds:
// "its effect on the sequential element will disappear in the next
// cycle" (Section III-B), while the corruption it caused propagates.
// A stuck-at forces its flop after that edge and again after every later
// one. The replay fast path (Replayer.injectHorizon, tmrRecheck) forces
// through cpu.FlopLoc on its own, so every oracle gate still compares two
// independent implementations of the model.
type fault struct {
	inj Injection
	hot bool // a struck soft fault that has not recovered yet
}

// edge applies the fault to st after the clock edge that ends cycle:
// nothing before the injection's cycle, the strike at it and the hold
// after it. ref is the state of a fault-free CPU after the same edge.
func (f *fault) edge(st, ref *cpu.State, cycle int) {
	switch {
	case cycle < f.inj.Cycle:
	case cycle == f.inj.Cycle && f.inj.Kind == SoftFlip:
		cpu.FlipBit(st, f.inj.Flop)
		f.hot = true
	default:
		f.hold(st, ref)
	}
}

// hold keeps a struck fault on st after a later clock edge, or after a
// TMR recovery: a soft fault still in force recovers to ref's bit, and a
// stuck-at is forced again.
func (f *fault) hold(st, ref *cpu.State) {
	switch {
	case f.inj.Kind.IsHard():
		cpu.ForceBit(st, f.inj.Flop, f.inj.Kind == Stuck1)
	case f.hot:
		cpu.ForceBit(st, f.inj.Flop, cpu.GetBit(ref, f.inj.Flop))
		f.hot = false
	}
}
