package lockstep

import (
	"math/bits"
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
// path: one mem.ReplayBus carrying the faulty CPU's memory image, the
// faulty CPU's double-buffered state, and the live main CPU and write
// journal of the TMR recovery recheck. All buffers are reused across
// experiments, so the steady-state hot path performs zero heap
// allocations; the RAM-image repositioning between experiments on the
// same Golden is incremental (word-sized deltas from the golden write
// log) rather than a full 256 KiB copy.
//
// A Replayer is NOT safe for concurrent use — give each campaign worker
// its own. The Golden it runs against is immutable and shared.
type Replayer struct {
	g   *Golden // timeline currently loaded into bus
	bus mem.ReplayBus
	// journal lets the TMR recheck's live main CPU write to bus.
	journal mem.Journal

	// red is the faulty CPU's state, double-buffered: each cycle steps
	// one buffer into the other (cpu.StepInto) and swaps them, instead of
	// copying the next state back.
	red [2]cpu.State
	// except selects every State field but the faulted flop, for the
	// per-cycle word pass against golden (cpu.DiffWords).
	except cpu.WordMask
	main   cpu.CPU // the TMR recheck's recovered main CPU
}

// NewReplayer returns an empty Replayer. RAM-image buffers are allocated
// lazily on the first experiment.
func NewReplayer() *Replayer { return &Replayer{} }

// seek positions the replay bus at the end of golden cycle c of g.
func (r *Replayer) seek(g *Golden, c int) {
	if r.g != g {
		r.bus.Load(g.ram0, g.writes)
		r.journal.Bus = &r.bus
		r.g = g
	}
	r.bus.Seek(c)
}

// injectHorizon is the replay injection core: it runs one experiment
// against g simulating only the redundant CPU, producing an Outcome
// bit-identical to the dual-CPU oracle g.injectLegacyHorizon(inj, window,
// horizon, shift). With skip set, a stuck-at fault jumps over the cycles
// in which it provably stays invisible (see below); skip off simulates
// every cycle, which is the form the pruning oracles use, because the
// skip reasons with the same liveness tables as pruning does.
//
// Equivalence to the dual-CPU oracle, piece by piece:
//
//   - Start: the legacy path forks the redundant CPU off a main CPU
//     restored at the injection cycle. Here the redundant CPU starts from
//     the same recorded golden state, states[inj.Cycle], against a
//     ReplayBus positioned at that cycle. Within cpu.Step the MEM-stage
//     store commits before the IF-stage fetch reads, and MEM performs
//     either a read or a write in a cycle — never a read of a word
//     written later the same cycle — so pre-applying all of cycle N's
//     golden writes before the step (AdvanceTo) serves exactly the data a
//     live System would have. External-region reads are the pure
//     mem.SensorValue pattern in both.
//   - Checker compare: the legacy path diffs main vs redundant outputs at
//     the top of every cycle. The main CPU's outputs at cycle c are
//     states[c].Outputs(), and Outputs is a pure function of 24 State
//     fields, so when those fields equal golden's the vectors are equal
//     and no compare is needed; only on a cycle whose output fields
//     differ are both vectors built and diffed, which is exact there.
//   - Post-fault stepping: in the legacy path the redundant CPU is a bus
//     monitor — its reads see the main CPU's memory image after the full
//     cycle, which is precisely the AdvanceTo(cyc+1)-then-step image, and
//     its writes are dropped (ReplayBus drops writes identically). A
//     diverged redundant CPU may fetch or load addresses the golden run
//     never touched; the ReplayBus serves any address from the
//     reconstructed image, not a recorded read stream, so those wild
//     reads also match the legacy monitor exactly.
//   - Soft-fault recovery bit: the legacy path copies the main CPU's
//     value of the faulted flop one cycle after injection; that is the
//     flop's bit in states[inj.Cycle+1].
//   - Convergence check: the legacy `red.State == main.State` compare is
//     `red.State == states[cyc]`, on every cycle.
//   - One word pass per cycle (cpu.DiffWords) answers all three compares
//     against states[cyc]: masked with every field but the faulted flop F
//     it says whether the faulty state equals golden except at F, F's own
//     byte then says whether it equals golden (==), and the output-field
//     mask says whether the output vectors can differ.
//   - Stuck-at skip: suppose that at the top of iteration R the faulty
//     state equals states[R] except at the stuck flop F, forced to v. If
//     F is not observed at R (liveness.go) or golden F equals v, the
//     outputs at R are golden's and the step to R+1 again yields
//     states[R+1] except at F, which is re-forced to v. By induction the
//     checker stays quiet up to the first R' >= R where F is observed and
//     golden F != v, and the faulty state there is exactly states[R'] with
//     F forced to v. So the loop loads that state, advances the bus to R'
//     and simulates on from an exact state; with no such R' before the
//     horizon the run is Masked. This is the state-level form of
//     concurrent fault simulation (Ulrich and Baker, 1974): the faulty
//     machine is simulated only where it differs from the good one.
//   - Exact re-convergence exit (skip off): suppose that at the top of
//     iteration R a stuck-at-v fault on F has left the faulty state equal
//     to states[R], and golden F equals v on every cycle in [R, horizon).
//     The outputs at R are golden's, and the step to R+1 yields exactly
//     states[R+1] (same state, same bus inputs), where re-forcing F to v
//     changes nothing. By induction the checker stays quiet to the
//     horizon, so the run is Masked from R on. This argues from the
//     recorded states alone, by determinism, as the soft-fault convergence
//     check does; it uses no liveness table, so the pruning oracles keep
//     it. Where golden F's final stretch of v before the horizon begins
//     is found once per experiment, on the first exact match, by a scan
//     back from horizon-1 that stops at that match.
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
func (r *Replayer) injectHorizon(g *Golden, inj Injection, window, horizon, shift int, skip bool) Outcome {
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
	r.seek(g, inj.Cycle)
	loc := cpu.LocOf(inj.Flop)
	r.except = cpu.FieldMask().Except(loc)
	red, spare := &r.red[0], &r.red[1]
	*red = g.states[inj.Cycle]
	// The golden value the flop of a soft fault recovers to one cycle
	// after injection.
	recoverBit := loc.Bit(&g.states[inj.Cycle+1])
	stuckVal := inj.Kind == Stuck1

	// Apply the fault after the injection-cycle clock edge (same
	// semantics as the legacy path: soft inverts for one cycle, stuck-at
	// is re-forced after every edge).
	if inj.Kind == SoftFlip {
		loc.Force(red, !loc.Bit(red))
	} else {
		loc.Force(red, stuckVal)
	}

	softArmed := inj.Kind == SoftFlip
	skip = skip && inj.Kind.IsHard()
	// exit arms the exact re-convergence exit of a stuck-at fault with the
	// skip off; tail is the first cycle, no earlier than the first exact
	// match, from which golden F stays stuckVal up to the horizon, and -1
	// until that match needs it.
	exit := inj.Kind.IsHard() && !skip
	tail := -1
	stepFaulty := func(cyc int) {
		r.bus.AdvanceTo(cyc + 1)
		cpu.StepInto(spare, red, &r.bus)
		red, spare = spare, red
		switch {
		case inj.Kind.IsHard():
			loc.Force(red, stuckVal)
		case softArmed:
			// The transient has passed: the flop itself recovers to the
			// golden value.
			loc.Force(red, recoverBit)
			softArmed = false
		}
	}
	for cyc := inj.Cycle; cyc < horizon; cyc++ {
		gold := &g.states[cyc]
		// rest == 0: equal to golden except at F; outs == 0: equal outputs.
		rest, outs := cpu.DiffWords(red, gold, &r.except)
		if skip && rest == 0 {
			next := g.exposure(inj.Flop, loc, stuckVal, cyc, horizon)
			if next < 0 {
				// The fault never shows before the horizon: masked.
				return Outcome{}
			}
			if next > cyc {
				cyc, gold = next, &g.states[next]
				*red = *gold
				loc.Force(red, stuckVal)
				r.bus.AdvanceTo(next)
				rest, outs = cpu.DiffWords(red, gold, &r.except)
			}
		}
		synced := rest == 0 && loc.Bit(red) == loc.Bit(gold)
		if exit && cyc >= tail && synced {
			if tail < 0 {
				tail = g.settledFrom(loc, stuckVal, cyc, horizon)
			}
			if cyc >= tail {
				// Back in sync for good: masked.
				return Outcome{}
			}
		}
		if outs != 0 {
			if dsr := diverge(gold, red); dsr != 0 {
				// Error detected; the DSR keeps OR-accumulating per-SC
				// divergences during the checker stop window.
				detect := cyc + shift
				for w := 1; w < window && cyc+1 < horizon; w++ {
					stepFaulty(cyc)
					cyc++
					if _, outs := cpu.DiffWords(red, &g.states[cyc], &r.except); outs != 0 {
						dsr |= diverge(&g.states[cyc], red)
					}
				}
				recordDSR("inject", dsr)
				return Outcome{Detected: true, DetectCycle: detect, DSR: dsr}
			}
		}
		// Convergence is absorbing: an equal state driven by the same bus
		// inputs stays equal, so it can never diverge into a detection.
		if inj.Kind == SoftFlip && !softArmed && synced {
			return Outcome{Converged: true}
		}
		stepFaulty(cyc)
	}
	// Horizon reached without divergence: masked.
	return Outcome{}
}

// diverge is the checker's divergence map between the output ports of
// the golden state gold and the faulty state red.
func diverge(gold, red *cpu.State) uint64 {
	og, or := gold.Outputs(), red.Outputs()
	return cpu.Diverge(&og, &or)
}

// settledFrom returns the first cycle c >= from such that the golden value
// of the flop at loc is v on every cycle in [c, horizon); horizon when it
// is not v on cycle horizon-1. The scan stops at from: the caller only
// asks about cycles from there on.
func (g *Golden) settledFrom(loc cpu.FlopLoc, v bool, from, horizon int) int {
	c := horizon
	for c > from && loc.Bit(&g.states[c-1]) == v {
		c--
	}
	return c
}

// exposure returns the first cycle R in [from, to) at which flop f (at
// loc) is observed while its golden value differs from v, or -1 when there
// is none: the cycle a stuck-at-v fault in a state otherwise in sync with
// golden first becomes visible to anything but f itself.
func (g *Golden) exposure(f int, loc cpu.FlopLoc, v bool, from, to int) int {
	lv := g.live
	switch st := lv.stream[f]; st {
	case lvNever:
		return -1
	case lvAlways:
		for c := from; c < to; c++ {
			if loc.Bit(&g.states[c]) != v {
				return c
			}
		}
		return -1
	default:
		obs := lv.obs[st]
		for c := from; c < to; c++ {
			w := obs[c>>6] >> (uint(c) & 63)
			if w == 0 {
				c |= 63 // the rest of this word is unobserved
				continue
			}
			if c += bits.TrailingZeros64(w); c < to && loc.Bit(&g.states[c]) != v {
				return c
			}
		}
		return -1
	}
}
