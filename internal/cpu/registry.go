package cpu

import (
	"fmt"
	"unsafe"

	"lockstep/internal/units"
)

// Reg describes one named flop register of the CPU: the logical unit it
// belongs to (coarse and fine), its width in bits, and accessors into a
// State. The registry enables the fault-injection methodology of Section IV
// of the paper: every flip-flop in the CPU is individually addressable for
// transient flips and stuck-at forcing.
type Reg struct {
	Name  string
	Unit  units.Unit
	Fine  units.Fine
	Width uint8
	Get   func(*State) uint32
	Set   func(*State, uint32)

	off  uintptr // byte offset of the register's field in State
	size uintptr // byte size of that field: 4 (uint32) or 1 (uint8, bool)
}

// Flop addresses one bit of one register.
type Flop struct {
	Reg int   // index into Registry()
	Bit uint8 // 0-based bit within the register
}

var (
	registry   []Reg
	flopOfIdx  []Flop    // flat flop index -> (reg, bit)
	flopLoc    []FlopLoc // flat flop index -> byte location in State
	flopBase   []int     // reg index -> first flat flop index
	flopsFine  [units.NumFine]int
	flopsUnit  [units.NumUnits]int
	totalFlops int
)

// Registry returns the full register list. The slice is shared; callers
// must not modify it.
func Registry() []Reg { return registry }

// NumFlops returns the total number of injectable flip-flops in the CPU.
func NumFlops() int { return totalFlops }

// FlopAt maps a flat flop index to its register and bit.
func FlopAt(i int) Flop { return flopOfIdx[i] }

// FlopIndex maps (register, bit) back to the flat flop index.
func FlopIndex(f Flop) int { return flopBase[f.Reg] + int(f.Bit) }

// FlopUnit returns the coarse unit owning flop i.
func FlopUnit(i int) units.Unit { return registry[flopOfIdx[i].Reg].Unit }

// FlopFine returns the fine unit owning flop i.
func FlopFine(i int) units.Fine { return registry[flopOfIdx[i].Reg].Fine }

// FlopName renders flop i as "Reg[bit]".
func FlopName(i int) string {
	f := flopOfIdx[i]
	return fmt.Sprintf("%s[%d]", registry[f.Reg].Name, f.Bit)
}

// UnitFlops returns the number of flops in a coarse unit.
func UnitFlops(u units.Unit) int { return flopsUnit[u] }

// FineFlops returns the number of flops in a fine unit.
func FineFlops(f units.Fine) int { return flopsFine[f] }

// FlipBit inverts flop i in s: a single-cycle transient (soft) fault when
// applied once after a clock edge.
func FlipBit(s *State, i int) {
	f := flopOfIdx[i]
	r := &registry[f.Reg]
	r.Set(s, r.Get(s)^(1<<f.Bit))
}

// ForceBit forces flop i in s to v: applied after every clock edge it
// models a stuck-at (hard) fault.
func ForceBit(s *State, i int, v bool) {
	f := flopOfIdx[i]
	r := &registry[f.Reg]
	cur := r.Get(s)
	if v {
		cur |= 1 << f.Bit
	} else {
		cur &^= 1 << f.Bit
	}
	r.Set(s, cur)
}

// GetBit reads flop i in s.
func GetBit(s *State, i int) bool {
	f := flopOfIdx[i]
	return registry[f.Reg].Get(s)>>f.Bit&1 != 0
}

// FlopLoc is where one flop lives in a State's memory: the byte at offset
// Off, under the single-bit Mask. It reads and forces a flop with one
// byte operation, where GetBit and ForceBit go through the register's
// accessor closures; the injection replay loop uses it on every cycle.
type FlopLoc struct {
	Off  uintptr
	Mask uint8
}

// LocOf returns the byte location of flop i.
func LocOf(i int) FlopLoc { return flopLoc[i] }

func stateByte(s *State, off uintptr) *byte {
	return (*byte)(unsafe.Add(unsafe.Pointer(s), off))
}

// Bit reads the flop at l in s; it equals GetBit.
func (l FlopLoc) Bit(s *State) bool { return *stateByte(s, l.Off)&l.Mask != 0 }

// Force sets the flop at l in s to v; it equals ForceBit.
func (l FlopLoc) Force(s *State, v bool) {
	p := stateByte(s, l.Off)
	if v {
		*p |= l.Mask
	} else {
		*p &^= l.Mask
	}
}

// ---- registry construction -------------------------------------------------

// littleEndian reports the host byte order, which places a field's bit
// lanes in memory.
var littleEndian = func() bool {
	var probe uint32 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

func init() {
	buildRegistry()
	flopBase = make([]int, len(registry))
	for ri, r := range registry {
		flopBase[ri] = totalFlops
		for b := uint8(0); b < r.Width; b++ {
			flopOfIdx = append(flopOfIdx, Flop{Reg: ri, Bit: b})
			lane := uintptr(b / 8)
			if !littleEndian {
				lane = r.size - 1 - lane
			}
			flopLoc = append(flopLoc, FlopLoc{Off: r.off + lane, Mask: 1 << (b % 8)})
		}
		totalFlops += int(r.Width)
		flopsUnit[r.Unit] += int(r.Width)
		flopsFine[r.Fine] += int(r.Width)
	}
	buildWordTables()
}

// fieldProbe is the State the registry's field pointers are resolved
// against to find each field's byte offset.
var fieldProbe State

func fieldOffset(field unsafe.Pointer) uintptr {
	return uintptr(field) - uintptr(unsafe.Pointer(&fieldProbe))
}

func add(name string, fine units.Fine, width uint8, off, size uintptr,
	get func(*State) uint32, set func(*State, uint32)) {
	registry = append(registry, Reg{
		Name: name, Unit: fine.Coarse(), Fine: fine, Width: width,
		Get: get, Set: set, off: off, size: size,
	})
}

func addU32(name string, fine units.Fine, p func(*State) *uint32) {
	add(name, fine, 32, fieldOffset(unsafe.Pointer(p(&fieldProbe))), 4,
		func(s *State) uint32 { return *p(s) },
		func(s *State, v uint32) { *p(s) = v })
}

func addU8(name string, fine units.Fine, width uint8, p func(*State) *uint8) {
	mask := uint8(1<<width - 1)
	add(name, fine, width, fieldOffset(unsafe.Pointer(p(&fieldProbe))), 1,
		func(s *State) uint32 { return uint32(*p(s) & mask) },
		func(s *State, v uint32) { *p(s) = uint8(v) & mask })
}

func addBool(name string, fine units.Fine, p func(*State) *bool) {
	add(name, fine, 1, fieldOffset(unsafe.Pointer(p(&fieldProbe))), 1,
		func(s *State) uint32 { return b2u(*p(s)) },
		func(s *State, v uint32) { *p(s) = v&1 != 0 })
}

func buildRegistry() {
	// --- PFU ---
	addU32("PC", units.FinePFU, func(s *State) *uint32 { return &s.PC })
	addU32("FQInstr0", units.FinePFU, func(s *State) *uint32 { return &s.FQInstr[0] })
	addU32("FQInstr1", units.FinePFU, func(s *State) *uint32 { return &s.FQInstr[1] })
	addU32("FQPC0", units.FinePFU, func(s *State) *uint32 { return &s.FQPC[0] })
	addU32("FQPC1", units.FinePFU, func(s *State) *uint32 { return &s.FQPC[1] })
	addBool("FQValid0", units.FinePFU, func(s *State) *bool { return &s.FQValid[0] })
	addBool("FQValid1", units.FinePFU, func(s *State) *bool { return &s.FQValid[1] })
	addU8("FQHead", units.FinePFU, 1, func(s *State) *uint8 { return &s.FQHead })

	// --- IMC ---
	addU32("IReqAddr", units.FineIMC, func(s *State) *uint32 { return &s.IReqAddr })
	addBool("IReqValid", units.FineIMC, func(s *State) *bool { return &s.IReqValid })
	addU32("IFData", units.FineIMC, func(s *State) *uint32 { return &s.IFData })

	// --- DPU: decode ---
	addU8("DXOp", units.FineDPUDecode, 6, func(s *State) *uint8 { return &s.DXOp })
	addU8("DXRd", units.FineDPUDecode, 4, func(s *State) *uint8 { return &s.DXRd })
	addU32("DXImm", units.FineDPUDecode, func(s *State) *uint32 { return &s.DXImm })
	addU32("DXPC", units.FineDPUDecode, func(s *State) *uint32 { return &s.DXPC })
	addU32("DXInstr", units.FineDPUDecode, func(s *State) *uint32 { return &s.DXInstr })
	addBool("DXValid", units.FineDPUDecode, func(s *State) *bool { return &s.DXValid })

	// --- DPU: operand ---
	addU32("DXRs1Val", units.FineDPUOperand, func(s *State) *uint32 { return &s.DXRs1Val })
	addU32("DXRs2Val", units.FineDPUOperand, func(s *State) *uint32 { return &s.DXRs2Val })
	addU8("DXRs1", units.FineDPUOperand, 4, func(s *State) *uint8 { return &s.DXRs1 })
	addU8("DXRs2", units.FineDPUOperand, 4, func(s *State) *uint8 { return &s.DXRs2 })

	// --- DPU: register file (R0 is hardwired zero, not a flop) ---
	for i := 1; i < 16; i++ {
		i := i
		addU32(fmt.Sprintf("R%d", i), units.FineDPURegFile,
			func(s *State) *uint32 { return &s.Regs[i] })
	}

	// --- DPU: ALU (EX/MEM latch) ---
	addU8("XMOp", units.FineDPUALU, 6, func(s *State) *uint8 { return &s.XMOp })
	addU8("XMRd", units.FineDPUALU, 4, func(s *State) *uint8 { return &s.XMRd })
	addU32("XMAlu", units.FineDPUALU, func(s *State) *uint32 { return &s.XMAlu })
	addU32("XMStore", units.FineDPUALU, func(s *State) *uint32 { return &s.XMStore })
	addU32("XMPC", units.FineDPUALU, func(s *State) *uint32 { return &s.XMPC })
	addU32("XMInstr", units.FineDPUALU, func(s *State) *uint32 { return &s.XMInstr })
	addBool("XMValid", units.FineDPUALU, func(s *State) *bool { return &s.XMValid })

	// --- DPU: multiplier ---
	addBool("MulBusy", units.FineDPUMul, func(s *State) *bool { return &s.MulBusy })
	addU32("MulA", units.FineDPUMul, func(s *State) *uint32 { return &s.MulA })
	addU32("MulB", units.FineDPUMul, func(s *State) *uint32 { return &s.MulB })
	addBool("MulHiSel", units.FineDPUMul, func(s *State) *bool { return &s.MulHiSel })

	// --- DPU: divider ---
	addBool("DivBusy", units.FineDPUDiv, func(s *State) *bool { return &s.DivBusy })
	addU8("DivCnt", units.FineDPUDiv, 5, func(s *State) *uint8 { return &s.DivCnt })
	addU32("DivRem", units.FineDPUDiv, func(s *State) *uint32 { return &s.DivRem })
	addU32("DivQuot", units.FineDPUDiv, func(s *State) *uint32 { return &s.DivQuot })
	addU32("DivDivisor", units.FineDPUDiv, func(s *State) *uint32 { return &s.DivDivisor })
	addBool("DivNegQ", units.FineDPUDiv, func(s *State) *bool { return &s.DivNegQ })
	addBool("DivNegR", units.FineDPUDiv, func(s *State) *bool { return &s.DivNegR })
	addBool("DivIsRem", units.FineDPUDiv, func(s *State) *bool { return &s.DivIsRem })

	// --- DPU: retire (MEM/WB latch) ---
	addU8("MWRd", units.FineDPURetire, 4, func(s *State) *uint8 { return &s.MWRd })
	addU32("MWVal", units.FineDPURetire, func(s *State) *uint32 { return &s.MWVal })
	addU32("MWPC", units.FineDPURetire, func(s *State) *uint32 { return &s.MWPC })
	addU32("MWInstr", units.FineDPURetire, func(s *State) *uint32 { return &s.MWInstr })
	addBool("MWValid", units.FineDPURetire, func(s *State) *bool { return &s.MWValid })
	addBool("MWWen", units.FineDPURetire, func(s *State) *bool { return &s.MWWen })

	// --- LSU ---
	addU32("LSUAddr", units.FineLSU, func(s *State) *uint32 { return &s.LSUAddr })
	addU32("LSUData", units.FineLSU, func(s *State) *uint32 { return &s.LSUData })
	addU8("LSUBE", units.FineLSU, 4, func(s *State) *uint8 { return &s.LSUBE })
	addBool("LSURe", units.FineLSU, func(s *State) *bool { return &s.LSURe })
	addBool("LSUWe", units.FineLSU, func(s *State) *bool { return &s.LSUWe })

	// --- DMC ---
	addU32("DAddr", units.FineDMC, func(s *State) *uint32 { return &s.DAddr })
	addU32("DWData", units.FineDMC, func(s *State) *uint32 { return &s.DWData })
	addU8("DBE", units.FineDMC, 4, func(s *State) *uint8 { return &s.DBE })
	addBool("DRe", units.FineDMC, func(s *State) *bool { return &s.DRe })
	addBool("DWe", units.FineDMC, func(s *State) *bool { return &s.DWe })
	addU32("DRData", units.FineDMC, func(s *State) *uint32 { return &s.DRData })

	// --- BIU ---
	addU32("ExtAddr", units.FineBIU, func(s *State) *uint32 { return &s.ExtAddr })
	addU32("ExtWData", units.FineBIU, func(s *State) *uint32 { return &s.ExtWData })
	addU8("ExtBE", units.FineBIU, 4, func(s *State) *uint8 { return &s.ExtBE })
	addBool("ExtRe", units.FineBIU, func(s *State) *bool { return &s.ExtRe })
	addBool("ExtWe", units.FineBIU, func(s *State) *bool { return &s.ExtWe })
	addBool("ExtBusy", units.FineBIU, func(s *State) *bool { return &s.ExtBusy })
	addU8("ExtCnt", units.FineBIU, 2, func(s *State) *uint8 { return &s.ExtCnt })
	addU32("ExtRData", units.FineBIU, func(s *State) *uint32 { return &s.ExtRData })

	// --- SCU ---
	addU32("CycCnt", units.FineSCU, func(s *State) *uint32 { return &s.CycCnt })
	addU32("RetCnt", units.FineSCU, func(s *State) *uint32 { return &s.RetCnt })
	addBool("Halted", units.FineSCU, func(s *State) *bool { return &s.Halted })
	addBool("ExcValid", units.FineSCU, func(s *State) *bool { return &s.ExcValid })
	addU8("ExcCause", units.FineSCU, 3, func(s *State) *uint8 { return &s.ExcCause })
	addU32("EPC", units.FineSCU, func(s *State) *uint32 { return &s.EPC })
	for i := 0; i < MPURegions; i++ {
		i := i
		addU32(fmt.Sprintf("MPUBase%d", i), units.FineSCU,
			func(s *State) *uint32 { return &s.MPUBase[i] })
		addU32(fmt.Sprintf("MPULimit%d", i), units.FineSCU,
			func(s *State) *uint32 { return &s.MPULimit[i] })
		addU8(fmt.Sprintf("MPUAttr%d", i), units.FineSCU, 2,
			func(s *State) *uint8 { return &s.MPUAttr[i] })
	}
}
