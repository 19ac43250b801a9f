package lockstep

import (
	"math/bits"
	"strconv"
	"strings"

	"lockstep/internal/cpu"
	"lockstep/internal/isa"
)

// This file implements static fault-equivalence pruning: classifying
// (flop, kind, cycle) injection sites as provably Masked (or, for soft
// faults, provably Converged) from the recorded golden run alone, without
// simulating a single faulty cycle. The campaign driver consults
// Golden.PruneMode before dispatching an experiment; a differential-oracle
// test layer (TestPruneSoundness, plus an always-on runtime sample inside
// inject.Run) re-simulates pruned sites through the full Replayer and
// asserts the prediction, so the static argument is continuously proven
// against the simulator it replaces.
//
// The same tables drive the replay loop's stuck-at skip (injectHorizon):
// the stuck-at argument below, applied from any cycle at which the faulty
// state is back in sync with golden except at the stuck flop, tells the
// loop where the fault next becomes visible. Because the skip trusts these
// tables, the oracles re-simulate with it off (Replayer.InjectModeNoSkip);
// otherwise one liveness bug could make prediction and check agree.
//
// # The soundness argument
//
// Both injection paths maintain the loop invariant "at the top of
// iteration R the faulty CPU holds the end-of-cycle-R state": outputs are
// compared against the golden vector of cycle R, then one cycle is
// stepped and the fault re-forced (stuck-at) or the flipped flop restored
// to its golden value (soft, one cycle after injection).
//
// Call flop F "observed at cycle R" when its end-of-R value can influence
// anything outside F itself:
//
//   - it is exposed on the compared output port (outputs.go qualifies
//     payload buses by their valid strobes, so e.g. IReqAddr is exposed
//     only while IReqValid), or
//   - the combinational logic of step R -> R+1 reads it into the next
//     value of any OTHER flop (bus writes don't count: a redundant CPU's
//     writes are dropped by Monitor and ReplayBus alike).
//
// If F is NOT observed at R, then two states that differ only in F
// produce equal outputs at R and step to next states that again differ at
// most in F. From this, per kind:
//
//   - Stuck-at-v at (F, C) is Masked if there is no cycle R in
//     [C, TotalCycles) where F is observed AND the golden value of F
//     differs from v. By induction the faulty state equals the golden
//     state except possibly bit F (re-forced to v after every edge), the
//     checker never fires, and the run reaches the horizon: Outcome{}.
//     For an always-observed flop this degrades gracefully into pure
//     value stability — forcing a bit to the value it already holds for
//     the rest of the run is a no-op (this is how constant upper address
//     bits, a never-asserted Halted flag, or a configured-once MPU
//     register absorb matching stuck-at faults).
//
//   - Stuck-at-v at (F, C), with F in register X, is also Masked if X does
//     not escape in [C, TotalCycles). Register X "escapes at cycle R" when
//     its end-of-R value can influence anything outside X: the output
//     port, or the next value of any flop of another register. The same
//     induction holds with "differ only in F" widened to "differ only
//     within X": if X does not escape at R, two states that differ only
//     within X produce equal outputs at R and step to next states that
//     again differ only within X, and re-forcing F keeps it that way. The
//     bit-level rule cannot see this for a counter, whose every bit feeds
//     its neighbours through the carry chain, so the counters would
//     otherwise be simulated to the horizon. Soft faults keep the
//     bit-level rule: a flip inside a sealed register may re-converge or
//     not, and only simulation tells Converged from Masked.
//
//   - A soft flip at (F, C) is Converged iff F is not observed at C: the
//     compare at C passes, the step to C+1 corrupts nothing else, and the
//     flop itself is restored to its golden value right after that step —
//     the faulty state IS the golden state at C+1. The simulated path
//     compares against the golden state on every cycle after the flop
//     recovers, so it returns Outcome{Converged: true} at C+1. The one
//     exception is C == TotalCycles-1: the injection loop exits before
//     the first convergence check is due, so the simulated outcome for
//     that site is Outcome{} (Masked), and prune predicts exactly that.
//
// # Observation streams
//
// Flops are grouped into streams with a common observation condition,
// each a function of golden end-of-cycle state that provably does not
// involve the stream's own flops (no circularity). The conditions
// over-approximate: counting a cycle as observed when the flop was not
// actually read costs pruning coverage, never soundness. Derived from
// cpu.Step and cpu.(*State).Outputs:
//
//   - register file R1..R15: read only by idRegRead at issue, for the
//     source fields the fetch-queue head decodes to (the write-back
//     bypass is ignored — an over-approximation);
//   - MPUBase/MPULimit of region i: MPUAllows reads them only while the
//     region's attr enable bit is set and a load/store occupies MEM; any
//     access in the MPU programming window observes every MPU register;
//   - MPUAttr: read for every region on every MEM-stage load/store;
//   - divider/multiplier data registers: read only while the matching
//     opcode sits valid in EX with the unit busy (the busy bits
//     themselves are read whenever the opcode is valid in EX);
//   - LSU registers: read only while a load/store occupies MEM;
//   - DX/XM/MW payload latches: read and/or exposed only under their
//     valid (and, for WB data, write-enable — over-approximated to
//     MWValid) strobes;
//   - fetch-queue payload: decoded only for the valid head entry;
//   - EPC/ExcCause: exposed only under ExcValid, never read back;
//   - RetCnt: increments (a cross-bit read of itself) only when an
//     instruction retires;
//   - IReqAddr / DAddr / DBE / DWData / external-bus payload: pure output
//     registers, exposed only under their port strobes;
//   - IFData, DRData, ExtRData, XMStore: registers that are written and
//     never read — the input-capture latches, and the EX/MEM store-data
//     latch (latchLSU takes the computed store value and MEM reads
//     LSUData) — so every injection into them is prunable;
//   - everything else (PC, valid bits, strobes, the cycle counter CycCnt
//     and status): conservatively always observed at the bit level, so
//     soft faults are never pruned there and stuck-at faults prune only
//     via value stability or register-level containment.
//
// # Escape conditions
//
// The register-level rule needs, per register, the cycles at which it
// escapes (escapeForReg). Every register escapes on every cycle unless
// listed here:
//
//   - RetCnt never escapes: it is not on the output port (outputs.go)
//     and nothing but its own increment reads it;
//   - CycCnt escapes only while DX holds a valid rdcyc (lvRdcyc), the one
//     instruction that copies it into the datapath; its own increment is
//     internal to it, and it is not on the output port. The condition
//     reads DXValid and DXOp, never CycCnt itself, so it holds for the
//     faulty machine whenever it holds for golden.
const (
	lvAlways   = iota // conservatively observed every cycle
	lvNever           // write-only sinks: never read, never exposed
	lvExc             // EPC, ExcCause: ExcValid
	lvRet             // RetCnt: MWValid (self-increment carries cross bits)
	lvRdcyc           // CycCnt escape: rdcyc valid in DX
	lvDX              // decode/operand payload: DXValid
	lvXM              // EX/MEM payload: XMValid
	lvMW              // MEM/WB payload: MWValid
	lvFQ0             // fetch-queue entry 0 payload: FQValid[0] at head
	lvFQ1             // fetch-queue entry 1 payload: FQValid[1] at head
	lvIReq            // IReqAddr: IReqValid
	lvDAddr           // DAddr, DBE: DRe || DWe
	lvDWData          // DWData: DWe
	lvExtPay          // ExtAddr, ExtWData, ExtBE: ExtBusy || ExtRe || ExtWe
	lvLSU             // LSU registers: load/store valid in MEM
	lvMulBusy         // MulBusy: MUL/MULH valid in EX
	lvMulData         // MulA/MulB/MulHiSel: MUL/MULH in EX and MulBusy
	lvDivBusy         // DivBusy: DIV/REM valid in EX
	lvDivData         // divider data registers: DIV/REM in EX and DivBusy
	lvMPUAttr         // MPUAttr[*]: any MEM-stage load/store
	lvMPUBL0          // MPUBase/MPULimit of region i: lvMPUBL0+i
	numStreams = lvMPUBL0 + cpu.MPURegions + 15
	lvReg1     = lvMPUBL0 + cpu.MPURegions // Regs[i]: lvReg1 + i - 1
)

// liveness is the per-kernel static pruning table, built once during
// NewGolden's recording pass and immutable afterwards (shared by clones).
type liveness struct {
	cycles  int                  // observations cover cycles [0, cycles-1]
	stream  []uint8              // flop index -> observation stream
	obs     [numStreams][]uint64 // per-stream observed-cycle bitmaps (nil for always/never)
	lastVal [2][]int32           // lastVal[b][f]: last observed cycle where flop f held bit b, -1 if none
	// escLast[f] is the last cycle at which flop f's register escapes
	// (see "Escape conditions"): -1 if it never does, cycles if the
	// register has no containment rule.
	escLast []int32
}

// observed reports whether flop f is observed at cycle c (see the file
// comment for the definition this soundly over-approximates).
func (lv *liveness) observed(f, c int) bool {
	switch st := lv.stream[f]; st {
	case lvAlways:
		return true
	case lvNever:
		return false
	default:
		if c < 0 || c >= lv.cycles {
			return true // out of analyzed range: claim nothing
		}
		return lv.obs[st][c>>6]>>(uint(c)&63)&1 != 0
	}
}

// prune statically classifies a DCLS injection against the golden run's
// liveness analysis. ok=true means the outcome is provably what the
// simulated paths (Replayer.InjectMode and the legacy dual-CPU oracle)
// would return — byte-identical, including the absence of a cycle field
// on Converged outcomes — so the campaign driver may record it without
// simulating. ok=false claims nothing: the site must be simulated.
func (g *Golden) prune(inj Injection) (Outcome, bool) {
	lv := g.live
	if lv == nil || inj.Cycle < 0 || inj.Cycle >= g.TotalCycles {
		return Outcome{}, false
	}
	switch inj.Kind {
	case SoftFlip:
		if lv.observed(inj.Flop, inj.Cycle) {
			return Outcome{}, false
		}
		if inj.Cycle == g.TotalCycles-1 {
			// The injection loop exits before the first convergence
			// check, so the simulated outcome is Masked, not Converged.
			return Outcome{}, true
		}
		return Outcome{Converged: true}, true
	case Stuck0, Stuck1:
		if int(lv.escLast[inj.Flop]) < inj.Cycle {
			// Register-level containment: the fault's register is sealed
			// from the injection cycle on.
			return Outcome{}, true
		}
		other := 1 // the golden value a stuck-at-0 would change
		if inj.Kind == Stuck1 {
			other = 0
		}
		if int(lv.lastVal[other][inj.Flop]) >= inj.Cycle {
			return Outcome{}, false
		}
		return Outcome{}, true
	}
	return Outcome{}, false
}

// liveStreamMask evaluates every stream's observation condition on one
// golden end-of-cycle state. Bit s of the result is set when stream s is
// observed that cycle. Each condition must not involve the stream's own
// flops; see the file comment for the per-stream derivation from cpu.Step.
func liveStreamMask(s *cpu.State) uint64 {
	m := uint64(1) << lvAlways
	if s.ExcValid {
		m |= 1 << lvExc
	}
	if s.MWValid {
		m |= 1<<lvRet | 1<<lvMW
	}
	if s.DXValid {
		m |= 1 << lvDX
		switch isa.Op(s.DXOp) {
		case isa.OpRDCYC:
			m |= 1 << lvRdcyc
		case isa.OpMUL, isa.OpMULH:
			m |= 1 << lvMulBusy
			if s.MulBusy {
				m |= 1 << lvMulData
			}
		case isa.OpDIV, isa.OpREM:
			m |= 1 << lvDivBusy
			if s.DivBusy {
				m |= 1 << lvDivData
			}
		}
	}
	if s.XMValid {
		m |= 1 << lvXM
		if op := isa.Op(s.XMOp); isa.IsLoad(op) || isa.IsStore(op) {
			m |= 1<<lvLSU | 1<<lvMPUAttr
			if s.LSUAddr >= cpu.MMIOBase && s.LSUAddr < cpu.MMIOEnd {
				// MPU programming window: a masked register write reads
				// the untouched bits back, so the access observes every
				// MPU register.
				for i := 0; i < cpu.MPURegions; i++ {
					m |= 1 << (lvMPUBL0 + i)
				}
			} else {
				for i := 0; i < cpu.MPURegions; i++ {
					if s.MPUAttr[i]&1 != 0 {
						m |= 1 << (lvMPUBL0 + i)
					}
				}
			}
		}
	}
	head := s.FQHead & 1
	if s.FQValid[head] {
		if head == 0 {
			m |= 1 << lvFQ0
		} else {
			m |= 1 << lvFQ1
		}
		// Issue reads exactly the source registers the head instruction
		// decodes to (idRegRead; R0 is hardwired and never a flop read).
		in := isa.Decode(s.FQInstr[head])
		if r := in.Rs1 & 0xF; r != 0 {
			m |= 1 << (lvReg1 + int(r) - 1)
		}
		if r := in.Rs2 & 0xF; r != 0 {
			m |= 1 << (lvReg1 + int(r) - 1)
		}
	}
	if s.IReqValid {
		m |= 1 << lvIReq
	}
	if s.DRe || s.DWe {
		m |= 1 << lvDAddr
	}
	if s.DWe {
		m |= 1 << lvDWData
	}
	if s.ExtBusy || s.ExtRe || s.ExtWe {
		m |= 1 << lvExtPay
	}
	return m
}

// streamForReg maps one registry register to its observation stream.
// Unknown names land on lvAlways: a future registry addition is never
// pruned until someone derives (and tests) its read set.
func streamForReg(name string) int {
	switch name {
	case "EPC", "ExcCause":
		return lvExc
	case "RetCnt":
		return lvRet
	case "DXOp", "DXRd", "DXImm", "DXPC", "DXInstr",
		"DXRs1Val", "DXRs2Val", "DXRs1", "DXRs2":
		return lvDX
	case "XMOp", "XMRd", "XMAlu", "XMPC", "XMInstr":
		return lvXM
	case "MWRd", "MWVal", "MWPC", "MWInstr":
		return lvMW
	case "FQInstr0", "FQPC0":
		return lvFQ0
	case "FQInstr1", "FQPC1":
		return lvFQ1
	case "IReqAddr":
		return lvIReq
	case "DAddr", "DBE":
		return lvDAddr
	case "DWData":
		return lvDWData
	case "ExtAddr", "ExtWData", "ExtBE":
		return lvExtPay
	case "LSUAddr", "LSUData", "LSUBE", "LSURe", "LSUWe":
		return lvLSU
	case "MulBusy":
		return lvMulBusy
	case "MulA", "MulB", "MulHiSel":
		return lvMulData
	case "DivBusy":
		return lvDivBusy
	case "DivCnt", "DivRem", "DivQuot", "DivDivisor",
		"DivNegQ", "DivNegR", "DivIsRem":
		return lvDivData
	case "IFData", "DRData", "ExtRData", "XMStore":
		return lvNever
	}
	if n, ok := regionSuffix(name, "MPUBase"); ok {
		return lvMPUBL0 + n
	}
	if n, ok := regionSuffix(name, "MPULimit"); ok {
		return lvMPUBL0 + n
	}
	if strings.HasPrefix(name, "MPUAttr") {
		return lvMPUAttr
	}
	if rest, ok := strings.CutPrefix(name, "R"); ok {
		if n, err := strconv.Atoi(rest); err == nil && n >= 1 && n < 16 {
			return lvReg1 + n - 1
		}
	}
	return lvAlways
}

// escapeForReg maps one registry register to the stream on which it
// escapes (see "Escape conditions" in the file comment): lvNever for a
// register whose value never leaves it, lvAlways for every register
// without a containment rule.
func escapeForReg(name string) int {
	switch name {
	case "RetCnt":
		return lvNever
	case "CycCnt":
		return lvRdcyc
	}
	return lvAlways
}

func regionSuffix(name, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 || n >= cpu.MPURegions {
		return 0, false
	}
	return n, true
}

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

// record folds one golden end-of-cycle state into the analysis. It must
// be called for cyc = 0 (reset state) through totalCycles in order; the
// final call only closes value segments, since cycle totalCycles is never
// compared or stepped from by the injection loop.
func (b *livenessBuilder) record(s *cpu.State, cyc int) {
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
	for m := liveStreamMask(s); m != 0; m &= m - 1 {
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
