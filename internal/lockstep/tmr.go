package lockstep

import (
	"lockstep/internal/cpu"
	"lockstep/internal/mem"
	"lockstep/internal/workload"
)

// TMR is a triple-core lockstep processor (the MMR configuration of
// Section II). CPU 0 drives the memory system; CPUs 1 and 2 are
// compare-only. The majority voter identifies the erring CPU when exactly
// one disagrees, which enables forward recovery: the architectural state of
// the majority is saved, all CPUs reset, and the state restored to bring
// the erring CPU back into lockstep — as in the TCLS Cortex-R5 system the
// paper cites.
type TMR struct {
	CPUs  [3]cpu.CPU
	Sys   *mem.System
	Cycle int

	// Fault forcing applied per CPU, mirroring the Inject harness. Arm
	// accumulates, so multi-fault scenarios (two CPUs erring at once —
	// the voter-ambiguity case TMR cannot recover from) are expressible.
	faults []armedFault
}

// armedFault is one scheduled fault forcing on one CPU of the triple.
type armedFault struct {
	fault
	cpu int
}

// NewTMR builds a triple lockstep system running the kernel.
func NewTMR(k *workload.Kernel) (*TMR, error) {
	sys, entry, err := k.NewSystem()
	if err != nil {
		return nil, err
	}
	t := &TMR{Sys: sys}
	t.CPUs[0] = cpu.CPU{Bus: sys}
	t.CPUs[0].State.Reset(entry)
	for i := 1; i < 3; i++ {
		t.CPUs[i] = cpu.CPU{Bus: mem.Monitor{Sys: sys}}
		t.CPUs[i].State.Reset(entry)
	}
	return t, nil
}

// Arm schedules fault forcing on one CPU (0..2) starting at inj.Cycle.
// Successive calls accumulate: arming faults on two CPUs models the
// double-fault case where the majority vote becomes ambiguous.
func (t *TMR) Arm(cpuIdx int, inj Injection) {
	t.faults = append(t.faults, armedFault{fault: fault{inj: inj}, cpu: cpuIdx})
}

// VoteResult is the majority voter's view of one cycle.
type VoteResult struct {
	Diverged bool
	DSR      uint64 // diverged-SC map of the erring CPU vs the majority
	Erring   int    // erring CPU index, or -1 if all three disagree
}

// Step advances all three CPUs one cycle, applies any armed fault, and
// votes on the output ports.
func (t *TMR) Step() VoteResult {
	t.Cycle++
	for i := range t.CPUs {
		t.CPUs[i].StepCycle()
	}
	for i := range t.faults {
		f := &t.faults[i]
		// A transient recovers to the value a (presumed) fault-free
		// neighbour CPU holds.
		f.edge(&t.CPUs[f.cpu].State, &t.CPUs[(f.cpu+1)%3].State, t.Cycle)
	}
	o0 := t.CPUs[0].State.Outputs()
	o1 := t.CPUs[1].State.Outputs()
	o2 := t.CPUs[2].State.Outputs()
	return vote3(&o0, &o1, &o2)
}

// vote3 is the majority voter over three output vectors: when exactly
// one CPU disagrees its divergence map against the majority is the DSR;
// when all three disagree the maps are OR-ed and no erring CPU is named.
func vote3(o0, o1, o2 *cpu.OutVec) VoteResult {
	d01 := cpu.Diverge(o0, o1)
	d02 := cpu.Diverge(o0, o2)
	d12 := cpu.Diverge(o1, o2)
	switch {
	case d01 == 0 && d02 == 0 && d12 == 0:
		return VoteResult{Erring: -1}
	case d01 == 0: // 0 and 1 agree -> 2 errs
		return VoteResult{Diverged: true, DSR: d02, Erring: 2}
	case d02 == 0: // 0 and 2 agree -> 1 errs
		return VoteResult{Diverged: true, DSR: d01, Erring: 1}
	case d12 == 0: // 1 and 2 agree -> 0 errs
		return VoteResult{Diverged: true, DSR: d01, Erring: 0}
	default:
		return VoteResult{Diverged: true, DSR: d01 | d02 | d12, Erring: -1}
	}
}

// ForwardRecover performs the MMR soft-error recovery of Section II: the
// architectural register state of a majority CPU is captured, every CPU is
// reset to it, and the erring CPU rejoins lockstep. Microarchitectural
// state is cleared by the reset, so the three CPUs restart bit-identical
// at the majority's retired PC.
//
// It returns the recovered architectural PC. The caller is responsible for
// only invoking this after the diagnostic flow has classified the error as
// soft (or after the voter identified the erring CPU).
func (t *TMR) ForwardRecover(majority int) uint32 {
	st := t.CPUs[majority].State
	recoverTMR(&st)
	for i := range t.CPUs {
		t.CPUs[i].State = st
	}
	t.faults = t.faults[:0]
	return st.PC
}

// recoverTMR is the forward-recovery state edit: it resets st at its PC
// (the next fetch address) and keeps its register file, discarding all
// microarchitectural state.
func recoverTMR(st *cpu.State) {
	pc, regs := st.PC, st.Regs
	st.Reset(pc)
	st.Regs = regs
}
