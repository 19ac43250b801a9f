package lockstep

import (
	"fmt"
	"io"

	"lockstep/internal/cpu"
)

// DivergenceTrace records the per-cycle diverged-SC maps of one injection
// around the detection point — the raw signal the Divergence Status
// Register integrates. It exists for debugging signature formation: which
// signal categories diverge first, how a stuck-at keeps re-diverging while
// a transient's wake fades, and what the accumulated DSR ends up holding.
type DivergenceTrace struct {
	Injection Injection
	Outcome   Outcome
	// Cycles[i] is the absolute cycle of sample i; Maps[i] is that
	// cycle's instantaneous divergence map (not accumulated). Sample 0 is
	// the detection cycle.
	Cycles []int
	Maps   []uint64
}

// Trace runs InjectLegacyMode's DCLS experiment and records the
// instantaneous divergence map of each cycle of its stop window of window
// cycles, which starts at detection.
func (g *Golden) Trace(inj Injection, window int) DivergenceTrace {
	tr := DivergenceTrace{Injection: inj}
	tr.Outcome = g.injectLegacyHorizon(inj, window, g.TotalCycles, 0, func(cycle int, m uint64) {
		tr.Cycles = append(tr.Cycles, cycle)
		tr.Maps = append(tr.Maps, m)
	})
	return tr
}

// Print renders the trace as an SC-by-cycle grid: one row per signal
// category that ever diverged, one column per recorded cycle.
func (tr DivergenceTrace) Print(w io.Writer) {
	fmt.Fprintf(w, "injection: %s at flop %s, cycle %d\n",
		tr.Injection.Kind, cpu.FlopName(tr.Injection.Flop), tr.Injection.Cycle)
	switch {
	case tr.Outcome.Converged:
		fmt.Fprintln(w, "outcome: transient fully masked (states re-converged)")
		return
	case !tr.Outcome.Detected:
		fmt.Fprintln(w, "outcome: no divergence within the horizon (masked)")
		return
	}
	fmt.Fprintf(w, "outcome: detected at cycle %d (manifestation %d cycles), accumulated DSR %#x\n",
		tr.Outcome.DetectCycle, tr.Outcome.DetectCycle-tr.Injection.Cycle, tr.Outcome.DSR)
	fmt.Fprintf(w, "%-12s", "SC \\ cycle")
	for _, c := range tr.Cycles {
		fmt.Fprintf(w, " %5d", c)
	}
	fmt.Fprintln(w)
	for sc := 0; sc < cpu.NumSC; sc++ {
		if tr.Outcome.DSR>>uint(sc)&1 == 0 {
			continue
		}
		fmt.Fprintf(w, "%-12s", cpu.SCName(sc))
		for _, m := range tr.Maps {
			mark := "     ."
			if m>>uint(sc)&1 != 0 {
				mark = "     X"
			}
			fmt.Fprint(w, mark)
		}
		fmt.Fprintln(w)
	}
}
