package lockstep

import "lockstep/internal/cpu"

// This file is the mode dispatch layer of the injection harness: one
// entry point per execution path (replay fast path, full-simulation
// oracle, static pruning) that specializes the DCLS machinery to a
// lockstep Mode.
//
// # Slip
//
// Injection plans are enumerated in program space (the cycle counter of
// the golden run), so a plan is identical across modes. Under slip:N the
// redundant CPU executes program cycle c at wall cycle c+N while the main
// CPU is always fault-free — which means the redundant CPU's environment
// in program space IS the DCLS environment. A slip run is therefore the
// DCLS replay with two parameters moved: the compare horizon shrinks to
// TotalCycles-N (the checker has seen only that many delayed program
// cycles when the campaign horizon arrives; injections at or past it are
// masked by construction), and detection cycles shift by +N into the
// wall clock. slip:0 is DCLS by construction, which the mode-determinism
// gate asserts experiment-for-experiment.
//
// # TMR
//
// The campaign faults a single CPU, and the convention here is CPU 2 — a
// compare-only monitor. CPU 0 (the bus driver) and CPU 1 stay golden and
// bit-identical, so the voter's pairwise d01 is always zero, the erring
// CPU is always identified, and the voted DSR d02 is exactly the DCLS
// checker's Diverge(golden, faulty): TMR detection outcomes equal DCLS
// outcomes, and the fast path reuses the replay core for them. What TMR
// adds is forward recovery (Section II): after the stop window the
// majority architectural state is restored into every core and execution
// resumes. Outcome.Converged on a Detected TMR outcome reports whether
// that recovery held — the cores stayed in lockstep through a
// TMRRecheckCycles recheck — distinguishing recoverable transients from
// permanent faults that re-diverge immediately.

// TMRRecheckCycles is the post-recovery observation window: after a TMR
// forward recovery the voter watches this many cycles for a re-divergence
// before declaring the recovery successful. It comfortably covers the
// pipeline refill plus several instructions, so a stuck-at fault on any
// flop observed in steady state re-diverges within it.
const TMRRecheckCycles = 64

// InjectMode runs one experiment under the given lockstep mode on the
// fast path, using this Replayer's scratch, with a checker stop-latency
// window of `window` cycles (the DSR keeps OR-accumulating that long after
// the first divergence; window <= 1 latches only the first-divergence map,
// and StopLatency is the paper's value). DCLS and slip:N run entirely on
// the golden-trace replay core, which starts at the recorded golden state
// of the injection cycle and lets a stuck-at fault jump over the stretches
// in which it provably stays invisible (see injectHorizon for why its
// outcomes are bit-identical to InjectLegacyMode's); TMR runs detection on
// the replay core and, for detected hard faults, simulates the
// forward-recovery recheck live (post-recovery execution leaves the golden
// trace, so it cannot be replayed).
func (r *Replayer) InjectMode(g *Golden, inj Injection, mode Mode, window int) Outcome {
	return r.injectMode(g, inj, mode, window, true)
}

// InjectModeNoSkip is InjectMode with the stuck-at skip off: every cycle
// from the fault on is simulated. The skip reasons with the liveness
// tables that static pruning is built on, so the pruning oracles use this
// form to stay independent of them; its outcomes equal InjectMode's.
func (r *Replayer) InjectModeNoSkip(g *Golden, inj Injection, mode Mode, window int) Outcome {
	return r.injectMode(g, inj, mode, window, false)
}

func (r *Replayer) injectMode(g *Golden, inj Injection, mode Mode, window int, skip bool) Outcome {
	switch mode.Kind {
	case ModeSlip:
		return r.injectHorizon(g, inj, window, mode.Horizon(g.TotalCycles), mode.DetectShift(), skip)
	case ModeTMR:
		return r.injectTMR(g, inj, window, skip)
	default:
		return r.injectHorizon(g, inj, window, g.TotalCycles, 0, skip)
	}
}

// InjectLegacyMode is the full-simulation differential oracle for every
// mode: dual live CPUs for DCLS and slip:N, triple live CPUs with a real
// majority voter for TMR. It shares no mode-specialization logic with the
// fast path beyond the recorded golden state it starts from, which is what
// makes the mode-determinism sample a meaningful cross-check.
func (g *Golden) InjectLegacyMode(inj Injection, mode Mode, window int) Outcome {
	switch mode.Kind {
	case ModeSlip:
		return g.injectLegacyHorizon(inj, window, mode.Horizon(g.TotalCycles), mode.DetectShift())
	case ModeTMR:
		return g.injectTMRLegacy(inj, window)
	default:
		return g.injectLegacyHorizon(inj, window, g.TotalCycles, 0)
	}
}

// injectTMR is the TMR fast path: detection via the replay core (equal to
// DCLS by the d01==0 argument above), then forward recovery for detected
// faults. Soft transients need no recheck simulation: the fault forcing
// is over by the time the cores are reset to the majority architectural
// state, so all three restart bit-identical against the same bus and stay
// in lockstep by determinism — Converged is true by construction (the
// triple-CPU oracle proves this argument on every sampled site). Hard
// faults keep forcing the flop after recovery, so their recheck is
// simulated live.
func (r *Replayer) injectTMR(g *Golden, inj Injection, window int, skip bool) Outcome {
	out := r.injectHorizon(g, inj, window, g.TotalCycles, 0, skip)
	if !out.Detected {
		return out
	}
	if window < 1 {
		window = 1
	}
	if inj.Kind == SoftFlip {
		out.Converged = true
		return out
	}
	// The stop window ended at cycle e; recovery restores the majority
	// state captured there.
	e := out.DetectCycle + window - 1
	if e > g.TotalCycles-1 {
		e = g.TotalCycles - 1
	}
	out.Converged = r.tmrRecheck(g, e, inj)
	return out
}

// tmrRecheck starts the majority (golden) machine from the recorded state
// at the end of cycle e, performs the forward recovery, and reports
// whether a still-forced hard fault keeps the recovered core in lockstep
// for TMRRecheckCycles. The memory image at recovery is the golden RAM —
// the erring core is a compare-only monitor whose writes are dropped — so
// the replay bus positioned at e is exact. The recovered main CPU leaves
// the golden timeline, so it writes through the Replayer's journal, which
// the recheck rolls back before returning. Each cycle's output check is
// injectHorizon's: the word compare cpu.DiffExcept, and the checker map
// cpu.DivergeStates only when the output fields of the two cores differ.
func (r *Replayer) tmrRecheck(g *Golden, e int, inj Injection) bool {
	r.seek(g, e)
	main := &r.main
	main.State, main.Bus = g.states[e], &r.journal
	recoverTMR(&main.State)
	loc, stuckVal := cpu.LocOf(inj.Flop), inj.Kind == Stuck1
	red, spare := &r.red[0], &r.red[1]
	*red = main.State
	loc.Force(red, stuckVal)
	defer r.journal.Rollback()
	for i := 0; i < TMRRecheckCycles; i++ {
		if _, outs := cpu.DiffExcept(red, &main.State, loc); outs != 0 && cpu.DivergeStates(&main.State, red) != 0 {
			return false
		}
		main.StepCycle()
		cpu.StepInto(spare, red, &r.bus)
		red, spare = spare, red
		loc.Force(red, stuckVal)
	}
	return true
}

// injectTMRLegacy is the TMR differential oracle: three live CPUs (bus
// driver plus two compare-only monitors, the faulty one being CPU 2),
// a genuine per-cycle majority vote, and the forward-recovery recheck run
// on the oracle's own cores and memory image. Nothing is read from the
// golden trace after restore, so agreement with the fast path is evidence
// rather than tautology.
func (g *Golden) injectTMRLegacy(inj Injection, window int) Outcome {
	if inj.Cycle < 0 || inj.Cycle >= g.TotalCycles {
		return Outcome{}
	}
	p := g.restorePair(inj)
	mon := p.main.Fork(p.red.Bus) // a second compare-only monitor
	step := func() {
		p.step()
		mon.StepCycle()
	}
	vote := func() VoteResult {
		o0, o1, o2 := p.main.State.Outputs(), mon.State.Outputs(), p.red.State.Outputs()
		return vote3(&o0, &o1, &o2)
	}
	for ; p.cycle < g.TotalCycles; step() {
		v := vote()
		if !v.Diverged {
			if p.converged() {
				return Outcome{Converged: true}
			}
			continue
		}
		detect, dsr := p.cycle, v.DSR
		for w := 1; w < window && p.cycle+1 < g.TotalCycles; w++ {
			step()
			dsr |= vote().DSR
		}
		// Forward recovery on the oracle's own triple: restore the
		// majority architectural state (main and mon are bit-identical,
		// either is the majority) into every core — including the erring
		// one, on which a stuck-at is forced again — then watch the vote
		// for TMRRecheckCycles.
		recoverTMR(&p.main.State)
		mon.State, p.red.State = p.main.State, p.main.State
		p.fault.hold(&p.red.State, &p.main.State)
		conv := true
		for i := 0; i < TMRRecheckCycles; i++ {
			if vote().Diverged {
				conv = false
				break
			}
			step()
		}
		return Outcome{Detected: true, DetectCycle: detect, DSR: dsr, Converged: conv}
	}
	return Outcome{}
}

// PruneMode statically classifies an injection under the given lockstep
// mode (see prune for the DCLS analysis). DCLS and TMR share the
// DCLS pruning table verbatim: a prunable site never detects, so the TMR
// recovery phase — the only behavioral difference — never runs. Under
// slip:N the horizon shrinks to TotalCycles-N: sites at or past it are
// masked by construction, the soft "injected on the last compared cycle"
// special case moves to horizon-1, and the stuck-at value-stability
// argument carries over unchanged (it proves stability to TotalCycles, a
// superset of the truncated window — an over-approximation that can cost
// coverage, never soundness).
func (g *Golden) PruneMode(inj Injection, mode Mode) (Outcome, bool) {
	if mode.Kind != ModeSlip {
		return g.prune(inj)
	}
	horizon := mode.Horizon(g.TotalCycles)
	if mode.Slip < 0 || horizon <= 0 || inj.Cycle < 0 || inj.Cycle >= g.TotalCycles {
		return Outcome{}, false
	}
	if inj.Cycle >= horizon {
		// Beyond the truncated horizon the injection loop never runs.
		return Outcome{}, true
	}
	out, ok := g.prune(inj)
	if !ok {
		return Outcome{}, false
	}
	if out.Converged && inj.Cycle == horizon-1 {
		// The injection loop exits before the first convergence check is
		// due, so the simulated outcome is Masked, not Converged.
		return Outcome{}, true
	}
	return out, true
}
