package lockstep

import (
	"sync"

	"lockstep/internal/cpu"
	"lockstep/internal/mem"
	"lockstep/internal/telemetry"
)

// replayTel caches the inject.replay_restores counter handle so the hot
// path increments a single atomic — no registry lookup, no allocation.
var replayTel struct {
	once     sync.Once
	restores *telemetry.Counter
}

func countReplayRestore() {
	replayTel.once.Do(func() {
		replayTel.restores = telemetry.Default.Counter("inject.replay_restores")
	})
	replayTel.restores.Inc()
}

// Replayer is the per-worker scratch state of the golden-trace injection
// path: one mem.ReplayBus carrying the faulty CPU's memory image and a
// second (vbus) for reconstructing exact golden states during the
// soft-fault convergence check. All buffers are reused across
// experiments, so the steady-state hot path performs zero heap
// allocations; the RAM-image repositioning between experiments on the
// same Golden is incremental (word-sized deltas from the golden write
// log) rather than a full 256 KiB copy.
//
// A Replayer is NOT safe for concurrent use — give each campaign worker
// its own. The Golden it runs against is immutable and shared.
type Replayer struct {
	g    *Golden // timeline currently loaded into bus
	bus  mem.ReplayBus
	vg   *Golden // timeline currently loaded into vbus
	vbus mem.ReplayBus

	// CPU scratch lives on the Replayer rather than the stack: the flop
	// registry's indirect accessors defeat escape analysis, so stack
	// locals would be heap-allocated once per experiment.
	red   cpu.CPU // the faulty CPU under test
	ghost cpu.CPU // one-cycle golden lookahead for the soft recovery bit
	vcpu  cpu.CPU // golden reconstruction for the convergence confirm
}

// NewReplayer returns an empty Replayer. RAM-image buffers are allocated
// lazily on the first experiment.
func NewReplayer() *Replayer { return &Replayer{} }

// injectHorizon is the replay injection core: it runs one experiment
// against g simulating only the redundant CPU, producing an Outcome
// bit-identical to the dual-CPU oracle g.injectLegacyHorizon(inj, window,
// horizon, shift).
//
// Equivalence to the dual-CPU oracle, piece by piece:
//
//   - Fault-free prefix: the legacy path steps the main CPU from the
//     snapshot to the injection cycle and forks the redundant CPU off it.
//     Here the redundant CPU itself is stepped from the snapshot state
//     against the ReplayBus. Within cpu.Step the MEM-stage store commits
//     before the IF-stage fetch reads, and MEM performs either a read or
//     a write in a cycle — never a read of a word written later the same
//     cycle — so pre-applying all of cycle N's golden writes before the
//     step (AdvanceTo) serves exactly the data a live System would have.
//     External-region reads are the pure mem.SensorValue pattern in both.
//   - Checker compare: the legacy path diffs main vs redundant outputs at
//     the top of every cycle; the golden trace holds the main CPU's
//     output vector for every cycle, so the diff runs against outAt(cyc).
//   - Post-fault stepping: in the legacy path the redundant CPU is a bus
//     monitor — its reads see the main CPU's memory image after the full
//     cycle, which is precisely the AdvanceTo(cyc+1)-then-step image, and
//     its writes are dropped (ReplayBus drops writes identically). A
//     diverged redundant CPU may fetch or load addresses the golden run
//     never touched; the ReplayBus serves any address from the
//     reconstructed image, not a recorded read stream, so those wild
//     reads also match the legacy monitor exactly.
//   - Soft-fault recovery bit: the legacy path copies the main CPU's
//     value of the faulted flop one cycle after injection. Without a live
//     main CPU the same bit comes from a ghost step: the pre-fault
//     redundant state IS the golden state at the injection cycle, so
//     stepping a copy of it one cycle yields the golden flop value.
//   - Convergence check: the legacy `red.State == main.State` compare
//     becomes a per-cycle fingerprint filter (equal states guarantee
//     equal fingerprints) confirmed against an exactly reconstructed
//     golden state, so a hash collision can cost time but never flip an
//     outcome.
//
// The run is generalized over the lockstep mode: it compares the first
// `horizon` cycles of the golden trace (DCLS/TMR compare all TotalCycles;
// an N-cycle slip only ever checks TotalCycles-N program cycles before the
// campaign horizon), and `shift` converts program-space detection cycles
// to wall-clock ones (the delayed checker of slip:N sees program cycle c
// at wall cycle c+N).
//
// The main CPU is fault-free in every mode, so in program space the
// redundant CPU's environment under slip IS the DCLS environment: the
// same golden trace drives the replay, only the loop bound and the
// reported DetectCycle move. slip:0 is therefore DCLS by construction.
func (r *Replayer) injectHorizon(g *Golden, inj Injection, window, horizon, shift int) Outcome {
	if horizon > g.TotalCycles {
		horizon = g.TotalCycles
	}
	if inj.Cycle < 0 || inj.Cycle >= horizon {
		return Outcome{}
	}
	if window < 1 {
		window = 1
	}
	countReplayRestore()

	s := &g.snaps[g.snapIndex(inj.Cycle)]
	if r.g != g {
		r.bus.Load(s.ram, s.cycle, g.trace.writes)
		r.g = g
	} else {
		r.bus.Seek(s.ram, s.cycle, s.cycle)
	}

	// Fault-free prefix: replay the redundant CPU (bit-identical to the
	// golden CPU until the fault applies) from the snapshot.
	red := &r.red
	red.State, red.Bus = s.cpu, &r.bus
	for cyc := s.cycle; cyc < inj.Cycle; cyc++ {
		r.bus.AdvanceTo(cyc + 1)
		red.StepCycle()
	}

	// For a soft fault, precompute the golden value the flop recovers to
	// one cycle after injection (ghost step of the still-golden state).
	// Advancing the image to inj.Cycle+1 early is harmless: the next bus
	// consumer is the redundant CPU stepping that same cycle.
	var recoverBit bool
	if inj.Kind == SoftFlip {
		r.ghost.State, r.ghost.Bus = red.State, &r.bus
		r.bus.AdvanceTo(inj.Cycle + 1)
		r.ghost.StepCycle()
		recoverBit = cpu.GetBit(&r.ghost.State, inj.Flop)
	}

	// Apply the fault after the injection-cycle clock edge (same
	// semantics as the legacy path: soft inverts for one cycle, stuck-at
	// is re-forced after every edge).
	switch inj.Kind {
	case SoftFlip:
		cpu.FlipBit(&red.State, inj.Flop)
	case Stuck0:
		cpu.ForceBit(&red.State, inj.Flop, false)
	case Stuck1:
		cpu.ForceBit(&red.State, inj.Flop, true)
	}

	softArmed := inj.Kind == SoftFlip
	stepFaulty := func(cyc int) {
		r.bus.AdvanceTo(cyc + 1)
		red.StepCycle()
		switch inj.Kind {
		case SoftFlip:
			if softArmed {
				// The transient has passed: the flop itself recovers to
				// the golden value.
				cpu.ForceBit(&red.State, inj.Flop, recoverBit)
				softArmed = false
			}
		case Stuck0:
			cpu.ForceBit(&red.State, inj.Flop, false)
		case Stuck1:
			cpu.ForceBit(&red.State, inj.Flop, true)
		}
	}
	for cyc := inj.Cycle; cyc < horizon; cyc++ {
		or := red.State.Outputs()
		// Whole-vector equality (a memcmp) gates the per-SC reduction:
		// Diverge sets bit i exactly when element i differs, so the DSR is
		// nonzero precisely when the vectors are unequal, and the
		// fault-free common case skips the 62-category loop entirely.
		if or != *g.trace.outAt(cyc) {
			dsr := cpu.Diverge(g.trace.outAt(cyc), &or)
			// Error detected; the DSR keeps OR-accumulating per-SC
			// divergences during the checker stop window.
			detect := cyc + shift
			for w := 1; w < window && cyc+1 < horizon; w++ {
				stepFaulty(cyc)
				cyc++
				or = red.State.Outputs()
				dsr |= cpu.Diverge(g.trace.outAt(cyc), &or)
			}
			recordDSR("inject", dsr)
			return Outcome{Detected: true, DetectCycle: detect, DSR: dsr}
		}
		if inj.Kind == SoftFlip && !softArmed && softCheckDue(cyc, inj.Cycle, horizon) &&
			uint32(cpu.Fingerprint(&red.State)) == g.trace.fp[cyc] &&
			red.State == r.goldenStateAt(g, cyc) {
			return Outcome{Converged: true}
		}
		stepFaulty(cyc)
	}
	// Horizon reached without divergence: masked.
	return Outcome{}
}

// softCheckDue schedules the soft-fault convergence check: every cycle
// for the first 64 cycles after injection (transients that get masked
// usually flush within the pipeline depth, so fast convergence still
// exits early), then every 64th cycle, and always on the last cycle the
// legacy path would have checked (TotalCycles-1).
//
// A sparse schedule cannot change the outcome, only the exit cycle of a
// Converged run: convergence is absorbing — once the redundant state
// equals the golden state, both evolve identically against the same bus
// inputs, so they are equal at every later cycle too (and can never
// diverge into a detection). Checking any subset of cycles that includes
// TotalCycles-1 therefore classifies exactly like the legacy per-cycle
// check, and the Converged Outcome carries no cycle field to differ in.
func softCheckDue(cyc, injCycle, total int) bool {
	return cyc-injCycle <= 64 || cyc&63 == 0 || cyc == total-1
}

// goldenStateAt reconstructs the exact golden cpu.State at the end of the
// given cycle by replaying from the nearest snapshot through the
// verification bus. It only runs when a state fingerprint already
// matched, i.e. (up to a ~2^-64 collision) once per converging soft
// fault, so its cost is off the hot path.
func (r *Replayer) goldenStateAt(g *Golden, cycle int) cpu.State {
	s := &g.snaps[g.snapIndex(cycle)]
	if r.vg != g {
		r.vbus.Load(s.ram, s.cycle, g.trace.writes)
		r.vg = g
	} else {
		r.vbus.Seek(s.ram, s.cycle, s.cycle)
	}
	r.vcpu.State, r.vcpu.Bus = s.cpu, &r.vbus
	for cyc := s.cycle; cyc < cycle; cyc++ {
		r.vbus.AdvanceTo(cyc + 1)
		r.vcpu.StepCycle()
	}
	return r.vcpu.State
}
