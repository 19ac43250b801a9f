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
//
// # Building the tables
//
// NewGolden records per cycle only the state (stepped straight into the
// next slot of its state table) and the cycle's stream mask
// (liveStreamMask); the tables are derived after the run (newLiveness).
// One forward pass over the masks sets the observation bitmaps and each
// stream's last observed cycle, which gives the escape table. lastVal
// comes from the recorded states: a flop that holds one value on every
// compared cycle resolves at once to its stream's last observed cycle,
// and the others from one backward scan, in which the first cycle at
// which a flop is observed holding b is its lastVal[b]. The scan reads
// the states as flat words (cpu.(*State).Words) and maps a resolved bit
// back to its flop with cpu.FlopOfBit, so no registry accessor runs per
// cycle. The forward per-cycle builder this replaced is kept as the test
// oracle the tables are held to (TestLivenessMatchesForwardBuilder).
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

// liveness is the per-kernel static pruning table, derived once from
// NewGolden's recorded states and stream masks (newLiveness) and
// immutable afterwards.
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

// livenessTables is the registry-derived half of the analysis, the same
// for every golden run: each flop's observation stream and the stream on
// which its register escapes, and, per word of the State word view
// (cpu.(*State).Words), the bits of the flops on each stream.
type livenessTables struct {
	stream []uint8 // flop -> observation stream
	escape []uint8 // flop -> escape stream of its register (escapeForReg)
	// always[w] holds the bits of word w's always-observed flops,
	// tracked[w] those of every flop that can be observed at all (all but
	// lvNever), and cond[w] the bits of the flops on each other stream.
	always, tracked [cpu.StateWords]uint64
	cond            [cpu.StateWords][]streamBits
}

type streamBits struct {
	st   int
	bits uint64
}

var lvTables = newLivenessTables()

// lastValues keeps the words that still hold an unresolved flop in one
// uint64; this line stops compiling if State outgrows it.
var _ [64 - cpu.StateWords]struct{}

func newLivenessTables() *livenessTables {
	n := cpu.NumFlops()
	t := &livenessTables{stream: make([]uint8, n), escape: make([]uint8, n)}
	for ri, r := range cpu.Registry() {
		base := cpu.FlopIndex(cpu.Flop{Reg: ri})
		st, esc := streamForReg(r.Name), escapeForReg(r.Name)
		for bit := 0; bit < int(r.Width); bit++ {
			f := base + bit
			t.stream[f], t.escape[f] = uint8(st), uint8(esc)
			w, m := cpu.LocOf(f).Word()
			switch st {
			case lvNever:
				continue
			case lvAlways:
				t.always[w] |= m
			default:
				i := 0
				for i < len(t.cond[w]) && t.cond[w][i].st != st {
					i++
				}
				if i == len(t.cond[w]) {
					t.cond[w] = append(t.cond[w], streamBits{st: st})
				}
				t.cond[w][i].bits |= m
			}
			t.tracked[w] |= m
		}
	}
	return t
}

// newLiveness derives the pruning table of a golden run from what
// NewGolden recorded: states[c], the state at the end of cycle c, and for
// every compared cycle c in [0, len(masks)), masks[c] =
// liveStreamMask(&states[c]). The observation bitmaps and the escape
// table come from one forward pass over the masks, lastVal from one
// backward scan of the states (lastValues).
func newLiveness(states []cpu.State, masks []uint64) *liveness {
	tab := lvTables
	cycles := len(masks)
	lv := &liveness{cycles: cycles, stream: tab.stream, escLast: make([]int32, len(tab.stream))}
	words := (cycles + 63) / 64
	for st := range lv.obs {
		if st != lvAlways && st != lvNever {
			lv.obs[st] = make([]uint64, words)
		}
	}
	var lastObs [numStreams]int32
	for st := range lastObs {
		lastObs[st] = -1
	}
	for c, m := range masks {
		for ; m != 0; m &= m - 1 {
			st := bits.TrailingZeros64(m)
			lastObs[st] = int32(c)
			if w := lv.obs[st]; w != nil {
				w[c>>6] |= 1 << (uint(c) & 63)
			}
		}
	}
	for f, st := range tab.escape {
		switch st {
		case lvAlways:
			lv.escLast[f] = int32(cycles)
		case lvNever:
			lv.escLast[f] = -1
		default:
			lv.escLast[f] = lastObs[st]
		}
	}
	lv.lastVal = lastValues(states, masks, &lastObs)
	return lv
}

// lastValues computes lastVal[b][f], the last compared cycle at which
// flop f is observed holding b (-1 if none). A flop that holds one value
// v on every compared cycle resolves at once: lastVal[v] is the last
// cycle its stream is observed (lastObs) and lastVal[!v] stays -1. The
// others come from one backward scan of the recorded states: scanning
// back, the first cycle at which a flop is observed holding b is its
// lastVal[b]. Each cycle visits only the words that still hold a flop
// unresolved for some value, and forms a word's observed bits from the
// cycle's stream mask, so a flop is written at most twice.
func lastValues(states []cpu.State, masks []uint64, lastObs *[numStreams]int32) (lastVal [2][]int32) {
	tab := lvTables
	for b := range lastVal {
		lastVal[b] = make([]int32, len(tab.stream))
		for f := range lastVal[b] {
			lastVal[b][f] = -1
		}
	}
	if len(masks) == 0 {
		return lastVal
	}
	first := states[0].Words()
	var varies [cpu.StateWords]uint64
	for c := 1; c < len(masks); c++ {
		sw := states[c].Words()
		for w := range varies {
			varies[w] |= sw[w] ^ first[w]
		}
	}
	var pending [2][cpu.StateWords]uint64 // flop bits not yet resolved, per value
	var active uint64                     // words with a pending bit
	for w, m := range tab.tracked {
		for h := m &^ varies[w]; h != 0; h &= h - 1 {
			bit := bits.TrailingZeros64(h)
			f := cpu.FlopOfBit(w*64 + bit)
			lastVal[first[w]>>bit&1][f] = lastObs[tab.stream[f]]
		}
		pending[0][w], pending[1][w] = m&varies[w], m&varies[w]
		if m&varies[w] != 0 {
			active |= 1 << w
		}
	}
	for c := len(masks) - 1; c >= 0 && active != 0; c-- {
		m, sw := masks[c], states[c].Words()
		for a := active; a != 0; a &= a - 1 {
			w := bits.TrailingZeros64(a)
			obs := tab.always[w]
			for _, sb := range tab.cond[w] {
				obs |= sb.bits & -(m >> sb.st & 1)
			}
			hit1, hit0 := pending[1][w]&sw[w]&obs, pending[0][w]&^sw[w]&obs
			if hit1|hit0 == 0 {
				continue
			}
			resolve(lastVal[1], w, hit1, c)
			resolve(lastVal[0], w, hit0, c)
			pending[1][w] &^= hit1
			pending[0][w] &^= hit0
			if pending[0][w]|pending[1][w] == 0 {
				active &^= 1 << w
			}
		}
	}
	return lastVal
}

// resolve sets last[f] = c for the flop f of every bit of word w in hits.
func resolve(last []int32, w int, hits uint64, c int) {
	for ; hits != 0; hits &= hits - 1 {
		last[cpu.FlopOfBit(w*64+bits.TrailingZeros64(hits))] = int32(c)
	}
}
