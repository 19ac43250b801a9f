package cpu

import (
	"lockstep/internal/isa"
	"lockstep/internal/mem"
)

// Step advances the CPU by one clock cycle: it evaluates the combinational
// logic of all five stages against the current flop state and bus, then
// latches the next state. Stages are evaluated back-to-front (WB, MEM, EX,
// ID, IF) so that stall and flush signals flow naturally.
//
// Memory timing: tightly-coupled RAM is synchronous with single-cycle
// access; external (peripheral) accesses occupy the memory stage for
// ExtLatency cycles via the BIU state machine.
func Step(s *State, bus mem.Bus) {
	n := *s
	step(&n, s, bus)
	*s = n
}

// StepInto writes the state one clock cycle after s into n and leaves s
// as it is: Step for a caller that keeps two State buffers and swaps them
// instead of copying each next state back. n must not alias s.
func StepInto(n, s *State, bus mem.Bus) {
	*n = *s
	step(n, s, bus)
}

// step is the one body of Step and StepInto. n holds a copy of s on
// entry (held values stay; the assignments below override the rest) and
// the next state on return.
func step(n, s *State, bus mem.Bus) {
	n.CycCnt = s.CycCnt + 1

	// ---------------- WB stage ----------------
	if s.MWValid {
		n.RetCnt = s.RetCnt + 1
		if s.MWWen && s.MWRd != 0 {
			n.Regs[s.MWRd&0xF] = s.MWVal
		}
	}

	// ---------------- MEM stage ----------------
	// Interface registers idle unless an access happens this cycle.
	n.DRe, n.DWe = false, false

	memDone := false
	memExc := uint8(CauseNone)
	var mwVal uint32
	var mwWen bool
	if s.XMValid {
		op := isa.Op(s.XMOp)
		switch {
		case isa.IsLoad(op) || isa.IsStore(op):
			memDone, memExc, mwVal, mwWen = stepMemAccess(s, n, bus, op)
		default:
			memDone = true
			mwVal = s.XMAlu
			mwWen = isa.WritesReg(op)
		}
	} else {
		memDone = true // empty stage accepts a new instruction
	}

	// MEM/WB latch.
	if s.XMValid && memDone && memExc == CauseNone {
		n.MWValid = true
		n.MWRd = s.XMRd & 0xF
		n.MWVal = mwVal
		n.MWWen = mwWen
		n.MWPC = s.XMPC
		n.MWInstr = s.XMInstr
	} else {
		n.MWValid = false
	}
	if memExc != CauseNone {
		raise(n, memExc, s.XMPC)
		n.LSURe, n.LSUWe = false, false
	}

	canPushXM := !s.XMValid || memDone

	// ---------------- EX stage ----------------
	exComplete := false
	redirect := false
	var redirectPC uint32
	var xmAlu, xmStore uint32
	var haltReq bool
	if s.DXValid {
		op := isa.Op(s.DXOp)
		a := fwdOperand(s, s.DXRs1, s.DXRs1Val)
		b := fwdOperand(s, s.DXRs2, s.DXRs2Val)
		// Refresh the operand capture latches every cycle the instruction
		// waits in EX, so values forwarded from transient XM/MW producers
		// are retained after the producers retire to the register file.
		n.DXRs1Val, n.DXRs2Val = a, b

		// A load sitting in MEM whose destination we need has no result
		// yet; wait for it to reach the MEM/WB latch.
		exBlocked := s.XMValid && isa.IsLoad(isa.Op(s.XMOp)) && s.XMRd != 0 &&
			(s.XMRd == s.DXRs1 && usesRs1(op) || s.XMRd == s.DXRs2 && usesRs2(op))

		switch op {
		case isa.OpMUL, isa.OpMULH:
			switch {
			case !s.MulBusy && exBlocked:
				// Wait for the operand-producing load before latching.
			case !s.MulBusy:
				n.MulBusy = true
				n.MulA, n.MulB = a, b
				n.MulHiSel = op == isa.OpMULH
			case canPushXM:
				p := int64(int32(s.MulA)) * int64(int32(s.MulB))
				if s.MulHiSel {
					xmAlu = uint32(uint64(p) >> 32)
				} else {
					xmAlu = uint32(p)
				}
				n.MulBusy = false
				exComplete = true
			}
		case isa.OpDIV, isa.OpREM:
			switch {
			case !s.DivBusy && exBlocked:
				// Wait for the operand-producing load before latching.
			case !s.DivBusy:
				startDivide(n, op, a, b)
			case s.DivCnt > 0:
				stepDivide(s, n)
			case canPushXM:
				xmAlu = finishDivide(s)
				n.DivBusy = false
				exComplete = true
			}
		default:
			if canPushXM && !exBlocked {
				exComplete = true
				xmAlu, xmStore, redirect, redirectPC, haltReq = execSimple(s, op, a, b)
			}
		}

		if exComplete {
			n.XMValid = true
			n.XMOp = s.DXOp
			n.XMRd = s.DXRd & 0xF
			n.XMAlu = xmAlu
			n.XMStore = xmStore
			n.XMPC = s.DXPC
			n.XMInstr = s.DXInstr
			if isa.IsLoad(op) || isa.IsStore(op) {
				latchLSU(n, op, xmAlu, xmStore)
			}
			if haltReq {
				n.Halted = true
			}
		}
	}
	if !exComplete && canPushXM {
		n.XMValid = false // bubble
	}

	if redirect {
		n.PC = redirectPC &^ 3
	}

	// ---------------- ID stage ----------------
	dxFree := !s.DXValid || exComplete
	issued := false
	illegal := false
	head := s.FQHead & 1
	headValid := s.FQValid[head]
	if dxFree {
		switch {
		case redirect || s.Halted || n.Halted:
			n.DXValid = false
		case headValid:
			in := isa.Decode(s.FQInstr[head])
			if in.Op == isa.OpInvalid {
				illegal = true
				raise(n, CauseIllegal, s.FQPC[head])
				n.DXValid = false
			} else {
				issued = true
				n.DXValid = true
				n.DXOp = uint8(in.Op)
				n.DXRd = in.Rd
				n.DXRs1 = in.Rs1
				n.DXRs2 = in.Rs2
				n.DXImm = uint32(in.Imm)
				n.DXPC = s.FQPC[head]
				n.DXInstr = s.FQInstr[head]
				n.DXRs1Val = idRegRead(s, in.Rs1)
				n.DXRs2Val = idRegRead(s, in.Rs2)
			}
		default:
			n.DXValid = false
		}
	}

	// ---------------- IF stage (PFU + IMC) ----------------
	n.IReqValid = false
	if redirect || illegal {
		n.FQValid[0], n.FQValid[1] = false, false
		n.FQHead = 0
		return
	}
	if issued {
		n.FQValid[head] = false
		n.FQHead = (head ^ 1) & 1
	}
	if !s.Halted && !n.Halted {
		if slot, ok := freeFQSlot(n); ok {
			pc := s.PC
			if pc&3 != 0 || pc >= mem.RAMBytes {
				raise(n, CauseIFetch, pc)
			} else {
				w := bus.ReadWord(pc)
				n.FQInstr[slot] = w
				n.FQPC[slot] = pc
				n.FQValid[slot] = true
				n.IReqAddr = pc
				n.IReqValid = true
				n.IFData = w
				n.PC = pc + 4
			}
		}
	}
}

// raise records the first exception (sticky) and halts the CPU.
func raise(n *State, cause uint8, pc uint32) {
	if !n.ExcValid {
		n.ExcValid = true
		n.ExcCause = cause & 7
		n.EPC = pc
	}
	n.Halted = true
}

// idRegRead reads a register in decode with a write-through bypass from the
// retiring instruction, so a value written back this cycle is visible to an
// instruction reading it in the same cycle.
func idRegRead(s *State, r uint8) uint32 {
	r &= 0xF
	if r == 0 {
		return 0
	}
	if s.MWValid && s.MWWen && s.MWRd == r {
		return s.MWVal
	}
	return s.Regs[r]
}

// fwdOperand resolves an EX operand with forwarding from the MEM-stage ALU
// result and the WB-stage value, falling back to the operand capture latch.
func fwdOperand(s *State, r uint8, captured uint32) uint32 {
	r &= 0xF
	if r == 0 {
		return 0
	}
	if s.XMValid && s.XMRd == r && !isa.IsLoad(isa.Op(s.XMOp)) &&
		isa.WritesReg(isa.Op(s.XMOp)) {
		return s.XMAlu
	}
	if s.MWValid && s.MWWen && s.MWRd == r {
		return s.MWVal
	}
	return captured
}

func usesRs1(op isa.Op) bool {
	switch isa.FormatOf(op) {
	case isa.FormatR, isa.FormatB:
		return true
	case isa.FormatI:
		return op != isa.OpRDCYC
	}
	return false
}

func usesRs2(op isa.Op) bool {
	switch isa.FormatOf(op) {
	case isa.FormatR, isa.FormatB:
		return true
	}
	return false
}

// execSimple executes all single-cycle operations, returning the ALU/link
// result, store data, and any PC redirect.
func execSimple(s *State, op isa.Op, a, b uint32) (alu, store uint32, redirect bool, target uint32, halt bool) {
	imm := s.DXImm
	switch op {
	case isa.OpADD:
		alu = a + b
	case isa.OpSUB:
		alu = a - b
	case isa.OpAND:
		alu = a & b
	case isa.OpOR:
		alu = a | b
	case isa.OpXOR:
		alu = a ^ b
	case isa.OpSLL:
		alu = a << (b & 31)
	case isa.OpSRL:
		alu = a >> (b & 31)
	case isa.OpSRA:
		alu = uint32(int32(a) >> (b & 31))
	case isa.OpSLT:
		if int32(a) < int32(b) {
			alu = 1
		}
	case isa.OpSLTU:
		if a < b {
			alu = 1
		}
	case isa.OpADDI:
		alu = a + imm
	case isa.OpANDI:
		alu = a & imm
	case isa.OpORI:
		alu = a | imm
	case isa.OpXORI:
		alu = a ^ imm
	case isa.OpSLTI:
		if int32(a) < int32(imm) {
			alu = 1
		}
	case isa.OpSLLI:
		alu = a << (imm & 31)
	case isa.OpSRLI:
		alu = a >> (imm & 31)
	case isa.OpSRAI:
		alu = uint32(int32(a) >> (imm & 31))
	case isa.OpLUI:
		alu = imm
	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		alu = a + imm
	case isa.OpSW, isa.OpSH, isa.OpSB:
		alu = a + imm
		store = b
	case isa.OpBEQ:
		redirect = a == b
	case isa.OpBNE:
		redirect = a != b
	case isa.OpBLT:
		redirect = int32(a) < int32(b)
	case isa.OpBGE:
		redirect = int32(a) >= int32(b)
	case isa.OpBLTU:
		redirect = a < b
	case isa.OpBGEU:
		redirect = a >= b
	case isa.OpJAL:
		alu = s.DXPC + 4
		redirect = true
	case isa.OpJALR:
		alu = s.DXPC + 4
		redirect = true
		target = a + imm
	case isa.OpRDCYC:
		alu = s.CycCnt
	case isa.OpHALT:
		halt = true
	}
	if redirect && op != isa.OpJALR {
		target = s.DXPC + 4 + imm*4
	}
	return alu, store, redirect, target, halt
}

// latchLSU captures an in-flight data access into the load/store unit:
// the effective address, lane-aligned store data and byte enables.
func latchLSU(n *State, op isa.Op, addr, store uint32) {
	size := isa.MemBytes(op)
	off := addr & 3
	n.LSUAddr = addr
	n.LSUBE = uint8(((1 << size) - 1) << off & 0xF)
	n.LSUData = store << (8 * off)
	n.LSURe = isa.IsLoad(op)
	n.LSUWe = isa.IsStore(op)
}

// stepMemAccess performs the MEM-stage work of a load or store using the
// LSU registers latched at EX completion. TCM accesses complete in one
// cycle through the DMC; external accesses engage the BIU state machine.
func stepMemAccess(s *State, n *State, bus mem.Bus, op isa.Op) (done bool, exc uint8, mwVal uint32, mwWen bool) {
	addr := s.LSUAddr
	size := isa.MemBytes(op)
	if size > 1 && addr&(size-1) != 0 {
		return true, CauseMisaligned, 0, false
	}
	// System-register window: internal SCU access, no external port
	// activity, never MPU-checked.
	if addr >= MMIOBase && addr < MMIOEnd {
		if s.LSUWe {
			n.MPUWrite(addr&^3, s.LSUData, mem.ByteLaneMask(uint32(s.LSUBE)))
		} else {
			mwVal = extractLoad(op, s.MPURead(addr&^3), addr)
			mwWen = true
		}
		n.LSURe, n.LSUWe = false, false
		return true, CauseNone, mwVal, mwWen
	}
	if !s.MPUAllows(addr, s.LSUWe) {
		return true, CauseMPU, 0, false
	}
	if addr >= mem.ExtBase {
		return stepExtAccess(s, n, bus, op)
	}
	if addr >= mem.RAMBytes {
		return true, CauseBusFault, 0, false
	}
	// Tightly-coupled RAM through the DMC: synchronous single-cycle.
	n.DAddr = addr
	n.DBE = s.LSUBE
	if s.LSUWe {
		n.DWe = true
		n.DWData = s.LSUData
		bus.WriteMasked(addr&^3, s.LSUData, mem.ByteLaneMask(uint32(s.LSUBE)))
	} else {
		n.DRe = true
		w := bus.ReadWord(addr &^ 3)
		n.DRData = w
		mwVal = extractLoad(op, w, addr)
		mwWen = true
	}
	n.LSURe, n.LSUWe = false, false
	return true, CauseNone, mwVal, mwWen
}

// stepExtAccess drives the BIU for a peripheral access: a setup cycle, wait
// states, then the bus transaction on the final cycle.
func stepExtAccess(s *State, n *State, bus mem.Bus, op isa.Op) (done bool, exc uint8, mwVal uint32, mwWen bool) {
	switch {
	case !s.ExtBusy:
		n.ExtBusy = true
		n.ExtCnt = ExtLatency - 1
		n.ExtAddr = s.LSUAddr
		n.ExtWData = s.LSUData
		n.ExtBE = s.LSUBE
		n.ExtRe = s.LSURe
		n.ExtWe = s.LSUWe
		return false, CauseNone, 0, false
	case s.ExtCnt > 0:
		n.ExtCnt = s.ExtCnt - 1
		return false, CauseNone, 0, false
	default:
		if s.ExtWe {
			bus.WriteMasked(s.ExtAddr&^3, s.ExtWData, mem.ByteLaneMask(uint32(s.ExtBE)))
		} else {
			w := bus.ReadWord(s.ExtAddr &^ 3)
			n.ExtRData = w
			mwVal = extractLoad(op, w, s.ExtAddr)
			mwWen = true
		}
		n.ExtBusy = false
		n.ExtRe, n.ExtWe = false, false
		n.LSURe, n.LSUWe = false, false
		return true, CauseNone, mwVal, mwWen
	}
}

// extractLoad pulls the addressed lanes out of a memory word and extends
// them per the load opcode.
func extractLoad(op isa.Op, word, addr uint32) uint32 {
	v := word >> (8 * (addr & 3))
	switch op {
	case isa.OpLB:
		return uint32(int32(int8(v)))
	case isa.OpLBU:
		return v & 0xFF
	case isa.OpLH:
		return uint32(int32(int16(v)))
	case isa.OpLHU:
		return v & 0xFFFF
	default:
		return v
	}
}

// startDivide initialises the restoring divider. Divide-by-zero short
// circuits with the RISC-V convention (quotient all-ones, remainder equal
// to the dividend).
func startDivide(n *State, op isa.Op, a, b uint32) {
	n.DivBusy = true
	n.DivIsRem = op == isa.OpREM
	if b == 0 {
		n.DivQuot = 0xFFFF_FFFF
		n.DivRem = a
		n.DivNegQ = false
		n.DivNegR = false
		n.DivCnt = 0
		return
	}
	negA := int32(a) < 0
	negB := int32(b) < 0
	n.DivNegQ = negA != negB
	n.DivNegR = negA
	n.DivQuot = absU32(a)
	n.DivDivisor = absU32(b)
	n.DivRem = 0
	n.DivCnt = 16
}

// stepDivide advances the restoring division by two bits.
func stepDivide(s *State, n *State) {
	rem, quot := s.DivRem, s.DivQuot
	div := s.DivDivisor
	for i := 0; i < 2; i++ {
		rem = rem<<1 | quot>>31
		quot <<= 1
		if rem >= div {
			rem -= div
			quot |= 1
		}
	}
	n.DivRem = rem
	n.DivQuot = quot
	n.DivCnt = s.DivCnt - 1
}

// finishDivide applies the sign fixups and selects quotient or remainder.
func finishDivide(s *State) uint32 {
	q, r := s.DivQuot, s.DivRem
	if s.DivNegQ {
		q = -q
	}
	if s.DivNegR {
		r = -r
	}
	if s.DivIsRem {
		return r
	}
	return q
}

func absU32(v uint32) uint32 {
	if int32(v) < 0 {
		return -v
	}
	return v
}

// freeFQSlot returns the fetch-queue slot a new instruction should fill,
// honouring the head pointer so entries stay in order.
func freeFQSlot(n *State) (int, bool) {
	head := int(n.FQHead & 1)
	if !n.FQValid[head] && !n.FQValid[head^1] {
		return head, true
	}
	if n.FQValid[head] && !n.FQValid[head^1] {
		return head ^ 1, true
	}
	return 0, false
}
