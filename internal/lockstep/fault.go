package lockstep

import (
	"lockstep/internal/cpu"
	"lockstep/internal/mem"
)

// fault is the fault model of Section IV-A on a live CPU, and the only
// code that flips or forces a flop of one: DMR, TMR and the oracle paths
// (through pair) all hold their injections with it. A soft fault inverts
// its flop after the clock edge that ends the injection's cycle and
// recovers once, after the next edge, to the bit a fault-free reference
// CPU holds: "its effect on the sequential element will disappear in the
// next cycle" (Section III-B), while the corruption it caused propagates.
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

// pair is the dual-CPU machine of the oracle paths (injectLegacyHorizon,
// injectTMRLegacy, Trace): a main CPU restored from the golden run, which
// drives the memory system, and a compare-only monitor forked from it
// that carries the fault.
type pair struct {
	main, red *cpu.CPU
	fault     fault
	cycle     int // the cycle whose end both states hold
}

// restorePair restores the golden run at the end of inj's cycle and
// strikes inj on the monitor, which is bit-identical to main until then.
func (g *Golden) restorePair(inj Injection) *pair {
	sys, main := g.restore(inj.Cycle)
	p := &pair{main: main, red: main.Fork(mem.Monitor{Sys: sys}), fault: fault{inj: inj}, cycle: inj.Cycle}
	p.fault.edge(&p.red.State, &main.State, p.cycle)
	return p
}

// step advances both CPUs by one clock edge and holds the fault. main
// steps first: the monitor reads the memory image main's step leaves.
func (p *pair) step() {
	p.main.StepCycle()
	p.red.StepCycle()
	p.cycle++
	p.fault.edge(&p.red.State, &p.main.State, p.cycle)
}

// diverge is the checker's divergence map between the two output ports.
func (p *pair) diverge() uint64 { return diverge(&p.main.State, &p.red.State) }

// converged reports whether a soft fault has passed and left the monitor
// bit-identical to main. Convergence is absorbing: equal states driven by
// the same bus stay equal.
func (p *pair) converged() bool {
	return p.fault.inj.Kind == SoftFlip && !p.fault.hot && p.red.State == p.main.State
}
