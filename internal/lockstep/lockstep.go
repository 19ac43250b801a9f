// Package lockstep implements CPU-level lockstepping (Figure 1c of the
// paper): redundant SR5 CPUs execute the same program cycle-for-cycle, an
// error checker compares their registered output ports every cycle, and a
// per-signal-category OR-reduction captures the diverged-SC map into the
// Divergence Status Register (DSR) at the moment an error is detected.
//
// The package also provides the fault-injection run harness used by the
// campaign driver: a golden execution that records the CPU state of every
// cycle, and an injection fast path (Replayer.InjectMode) that starts from
// the recorded state at the fault's cycle, applies a transient or stuck-at
// fault to one flip-flop of the redundant CPU, and reports whether, when
// and how the fault manifested at the outputs. Golden.InjectLegacyMode is
// its full-simulation oracle and Golden.PruneMode its static shortcut.
package lockstep

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"lockstep/internal/cpu"
	"lockstep/internal/mem"
	"lockstep/internal/telemetry"
	"lockstep/internal/workload"
)

// dsrTel caches the telemetry handles for one DSR source so the
// injection hot path records detections with pure atomic operations —
// no registry lookup, no key formatting, zero heap allocations. Handles
// are created on first detection, preserving the "metric appears when it
// first fires" snapshot behaviour.
type dsrTel struct {
	once sync.Once
	det  *telemetry.Counter
	pop  *telemetry.Histogram
}

func (t *dsrTel) record(source string, dsr uint64) {
	t.once.Do(func() {
		t.det = telemetry.Default.Counter("lockstep.detections", telemetry.L("source", source))
		t.pop = telemetry.Default.Histogram("lockstep.dsr_popcount", telemetry.PopBuckets,
			telemetry.L("source", source))
	})
	t.det.Inc()
	t.pop.Observe(int64(bits.OnesCount64(dsr)))
}

var (
	injectDSRTel  dsrTel
	checkerDSRTel dsrTel
)

// recordDSR logs the bit population of a latched DSR to the default
// telemetry registry: how many signal categories diverged by the time
// the checker stopped the CPUs — the raw signal the paper's correlation
// tables are built from (hard faults spread across visibly more SCs than
// single-cycle transients). source is "inject" for the campaign harness
// (DSR after the full stop-latency accumulation window) or "checker" for
// a live Checker latch (first-divergence map).
func recordDSR(source string, dsr uint64) {
	if source == "inject" {
		injectDSRTel.record(source, dsr)
		return
	}
	checkerDSRTel.record(source, dsr)
}

// FaultKind is the class of injected fault.
type FaultKind uint8

// Fault kinds. A soft fault inverts a flip-flop for a single cycle; the
// stuck-at kinds force the flop to a constant from the injection cycle to
// the end of the run (Section IV-A).
const (
	SoftFlip FaultKind = iota
	Stuck0
	Stuck1
	NumFaultKinds = 3
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case SoftFlip:
		return "soft"
	case Stuck0:
		return "stuck-at-0"
	case Stuck1:
		return "stuck-at-1"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// IsHard reports whether the kind models a permanent fault.
func (k FaultKind) IsHard() bool { return k != SoftFlip }

// Injection describes one fault-injection experiment.
type Injection struct {
	Flop  int       // flop index into the CPU registry
	Kind  FaultKind // soft, stuck-at-0 or stuck-at-1
	Cycle int       // absolute cycle after whose clock edge the fault applies
}

// Outcome is the result of one injection experiment.
type Outcome struct {
	Detected    bool   `json:"detected,omitempty"`     // checker observed a divergence
	DetectCycle int    `json:"detect_cycle,omitempty"` // absolute cycle of detection (if Detected)
	DSR         uint64 `json:"dsr,omitempty"`          // diverged SC map latched at detection (if Detected)
	Converged   bool   `json:"converged,omitempty"`    // soft fault fully masked: redundant state re-joined golden
	// Failed marks an experiment the campaign harness aborted: it still
	// panicked after the retry budget. The simulation paths never set it;
	// internal/inject records it so one poisoned experiment is logged
	// instead of killing a multi-week campaign.
	Failed bool `json:"failed,omitempty"`
}

// ManifestationCycles is the paper's error detection/manifestation time:
// fault occurrence to checker detection.
func (o Outcome) ManifestationCycles(inj Injection) int {
	return o.DetectCycle - inj.Cycle
}

// Golden is a recorded fault-free execution of one kernel: the golden
// CPU state at the end of every cycle, the reset RAM image with the RAM
// write log, and the liveness tables, shared by all injections into that
// kernel. The golden output vector of any cycle is a function of its
// state (states[c].Outputs()); the replay loop computes it only on a
// cycle whose output fields differ from the faulty CPU's.
//
// A Golden is immutable once NewGolden returns: every injection path
// restores its own scratch state (per-worker, via Replayer) from the
// recorded states and write log and never writes back, so concurrent
// injections against one shared Golden are safe and produce outcomes
// identical to serial execution.
type Golden struct {
	Kernel      *workload.Kernel
	Entry       uint32
	TotalCycles int

	// states[c] is the golden CPU state at the end of cycle c (states[0]
	// is reset state), for c in [0, TotalCycles].
	states []cpu.State
	// ram0 is the RAM image at reset; ram0 plus the write log gives the
	// golden RAM at any cycle.
	ram0 []uint32
	// writes is the golden RAM write log a mem.ReplayBus uses to drive the
	// memory image forward without a live main CPU.
	writes []mem.WriteEvent
	live   *liveness // static fault-equivalence pruning table (see liveness.go)
}

// TraceVersion identifies the golden-trace layout and the static-pruning
// semantics built on top of it. It participates in the campaign
// checkpoint fingerprint (inject.Fingerprint): a checkpoint recorded
// under a different trace/pruning generation refuses to resume rather
// than silently mixing outcomes produced by different analyses.
//
// Version history: 1 = flat per-cycle OutVec + uint64 fingerprint arrays;
// 2 = interned OutVec table + uint32 fingerprints + liveness pruning. The
// per-cycle states that later replaced the snapshots, the fingerprints
// and the output table changed no outcome, so they kept version 2.
const TraceVersion = 2

// TraceBytes reports the heap footprint of everything a Golden holds —
// the per-cycle states, the reset RAM image, the write log and the
// liveness and escape tables — published by the campaign driver as the
// inject.golden_trace_bytes gauge.
func (g *Golden) TraceBytes() int64 {
	n := int64(len(g.states))*int64(unsafe.Sizeof(cpu.State{})) +
		int64(len(g.ram0))*4 +
		int64(len(g.writes))*mem.WriteEventBytes
	if lv := g.live; lv != nil {
		n += int64(len(lv.stream)) + int64(len(lv.lastVal[0])+len(lv.lastVal[1])+len(lv.escLast))*4
		for _, w := range lv.obs {
			n += int64(len(w)) * 8
		}
	}
	return n
}

// NewGolden runs the kernel fault-free for totalCycles and records what
// the injection paths run against: the CPU state at the end of every
// cycle, the reset RAM image and RAM write log, and the liveness tables.
// Per cycle it only steps the CPU into the next slot of the state table
// and evaluates the cycle's liveness stream mask; the tables are derived
// from the states and masks after the run (newLiveness). snapEvery must
// be positive but no longer changes what is built: the per-cycle states
// replaced the periodic snapshots it used to space.
func NewGolden(k *workload.Kernel, totalCycles, snapEvery int) (*Golden, error) {
	if totalCycles <= 0 || snapEvery <= 0 {
		return nil, fmt.Errorf("lockstep: bad golden config %d/%d", totalCycles, snapEvery)
	}
	sys, entry, err := k.NewSystem()
	if err != nil {
		return nil, err
	}
	g := &Golden{
		Kernel:      k,
		Entry:       entry,
		TotalCycles: totalCycles,
		states:      make([]cpu.State, totalCycles+1),
		ram0:        sys.Snapshot(0, mem.RAMBytes/4),
	}
	// masks[c] is liveStreamMask of cycle c; it is build scratch, dropped
	// once the liveness tables are derived.
	masks := make([]uint64, totalCycles)
	rec := &mem.Recorder{Sys: sys}
	g.states[0].Reset(entry)
	for cyc := 1; cyc <= totalCycles; cyc++ {
		rec.Cycle = int32(cyc)
		reads := cpu.StepIntoReads(&g.states[cyc], &g.states[cyc-1], rec)
		masks[cyc-1] = liveStreamMask(&g.states[cyc-1], reads)
		if g.states[cyc].Trapped() {
			return nil, fmt.Errorf("lockstep: golden %s trapped at cycle %d", k.Name, cyc)
		}
	}
	g.writes = rec.Writes
	g.live = newLiveness(g.states, masks)
	return g, nil
}

// restore returns a fresh system and golden CPU at the end of cycle: the
// CPU state is the recorded one and the RAM is the reset image with the
// write log applied up to cycle. It is the oracle paths' entry point
// (restorePair); the replay path positions a mem.ReplayBus instead (see
// Replayer).
func (g *Golden) restore(cycle int) (*mem.System, *cpu.CPU) {
	sys := mem.NewSystem()
	sys.RestoreRAM(g.ram0)
	for _, e := range g.writes {
		if int(e.Cycle) > cycle {
			break
		}
		sys.WriteMasked(e.Addr, e.Data, e.Mask)
	}
	return sys, &cpu.CPU{State: g.states[cycle], Bus: sys}
}

// injectLegacyHorizon is the original dual-CPU experiment, generalized
// over the lockstep mode: the golden (main) CPU is re-simulated to drive
// the memory system while the redundant CPU consumes the same inputs with
// the fault held on it (see fault). It mirrors Replayer.injectHorizon:
// `horizon` bounds the compared program cycles and `shift` moves
// detection cycles to the wall clock (see the mode rationale there). It
// is twice the simulation work of the replay path and is kept as its
// differential-testing oracle.
func (g *Golden) injectLegacyHorizon(inj Injection, window, horizon, shift int) Outcome {
	if horizon > g.TotalCycles {
		horizon = g.TotalCycles
	}
	if inj.Cycle < 0 || inj.Cycle >= horizon {
		return Outcome{}
	}
	p := g.restorePair(inj)
	for ; p.cycle < horizon; p.step() {
		if dsr := p.diverge(); dsr != 0 {
			// Error detected. The checker's error output takes the stop
			// window to actually halt the CPUs; the DSR keeps
			// OR-accumulating per-SC divergences during that window
			// (Figure 6's DSR bits are set, never cleared, until read).
			detect := p.cycle + shift
			for w := 1; w < window && p.cycle+1 < horizon; w++ {
				p.step()
				dsr |= p.diverge()
			}
			recordDSR("inject", dsr)
			return Outcome{Detected: true, DetectCycle: detect, DSR: dsr}
		}
		if p.converged() {
			return Outcome{Converged: true}
		}
	}
	// Horizon reached without divergence: masked.
	return Outcome{}
}

// StopLatency is the number of cycles between the checker raising its
// error output and the CPUs actually stopping (interrupt delivery and
// clock-stop propagation). The Divergence Status Register accumulates
// diverged SCs throughout this window, which is what lets permanent
// faults — which keep corrupting outputs — spread across visibly more SCs
// than single-cycle transients (Section III-B).
const StopLatency = 12

// Checker is the standalone lockstep error checker + error correlation
// front-end of the paper's Figure 6: it compares the output ports of two
// (or more) CPUs, OR-reduces per-SC differences, and latches the first
// divergence into the Divergence Status Register.
type Checker struct {
	DSR      uint64 // diverged-SC map latched at first error
	Error    bool   // sticky lockstep error flag
	ErrCycle int    // cycle the error was latched
	cycle    int
}

// Compare feeds one cycle of output vectors to the checker. It returns
// true when this cycle latched a new error. Once Error is set the checker
// holds its state (the CPUs would be stopped by the system controller).
func (c *Checker) Compare(vecs ...*cpu.OutVec) bool {
	c.cycle++
	if c.Error || len(vecs) < 2 {
		return false
	}
	var dsr uint64
	for i := 1; i < len(vecs); i++ {
		dsr |= cpu.Diverge(vecs[0], vecs[i])
	}
	if dsr == 0 {
		return false
	}
	c.DSR = dsr
	c.Error = true
	c.ErrCycle = c.cycle
	recordDSR("checker", dsr)
	return true
}

// Reset clears the checker for reuse after error handling.
func (c *Checker) Reset() { *c = Checker{} }
