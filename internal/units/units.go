// Package units defines the logical organization of the SR5 CPU: the seven
// coarse-granular units of the paper's Figure 8 and the thirteen-unit fine
// configuration of Section V-D in which the Data Processing Unit (DPU) is
// broken down into seven constituent sub-units.
//
// Every flip-flop in the CPU model is tagged with both a coarse Unit and a
// fine Unit so that fault-injection campaigns, prediction models and STL
// orderings can be evaluated at either granularity.
package units

import "fmt"

// Unit is a coarse logical CPU unit (7-unit configuration).
type Unit uint8

// The seven coarse units, mirroring the Cortex-R5 organization in the
// paper's Figure 8.
const (
	PFU      Unit = iota // Prefetch Unit: PC, fetch queue, redirect handling
	IMC                  // Instruction Memory Control: instruction-port interface
	DPU                  // Data Processing Unit: decode, regfile, ALU, mul/div, retire
	LSU                  // Load Store Unit: access formatting, external-wait control
	DMC                  // Data Memory Control: data-port interface
	BIU                  // Bus Interface Unit: external (AXI-like) bus master
	SCU                  // System Control Unit: counters, exception and halt state
	NumUnits = 7
)

var unitNames = [NumUnits]string{"PFU", "IMC", "DPU", "LSU", "DMC", "BIU", "SCU"}

// String returns the unit's short name.
func (u Unit) String() string {
	if int(u) < NumUnits {
		return unitNames[u]
	}
	return fmt.Sprintf("Unit(%d)", uint8(u))
}

// Valid reports whether u is one of the seven defined units.
func (u Unit) Valid() bool { return int(u) < NumUnits }

// Fine is a fine-granular logical CPU unit (13-unit configuration):
// the six non-DPU units plus seven DPU sub-units.
type Fine uint8

// Fine units. The first six match the coarse units; the remaining seven
// partition the DPU.
const (
	FinePFU Fine = iota
	FineIMC
	FineLSU
	FineDMC
	FineBIU
	FineSCU
	FineDPUDecode  // ID/EX control latch: opcode, rd, immediate, PC
	FineDPUOperand // latched source operand values and register numbers
	FineDPURegFile // architectural register file
	FineDPUALU     // EX/MEM latch: ALU result, store data, control
	FineDPUMul     // multiplier pipeline registers
	FineDPUDiv     // iterative divider registers
	FineDPURetire  // MEM/WB latch and commit trace registers
	NumFine        = 13
)

var fineNames = [NumFine]string{
	"PFU", "IMC", "LSU", "DMC", "BIU", "SCU",
	"DPU.Decode", "DPU.Operand", "DPU.RegFile", "DPU.ALU",
	"DPU.Mul", "DPU.Div", "DPU.Retire",
}

// String returns the fine unit's name.
func (f Fine) String() string {
	if int(f) < NumFine {
		return fineNames[f]
	}
	return fmt.Sprintf("Fine(%d)", uint8(f))
}

// Valid reports whether f is one of the thirteen defined fine units.
func (f Fine) Valid() bool { return int(f) < NumFine }

// Coarse maps a fine unit to its coarse unit: DPU sub-units map to DPU,
// the rest map to themselves.
func (f Fine) Coarse() Unit {
	switch f {
	case FinePFU:
		return PFU
	case FineIMC:
		return IMC
	case FineLSU:
		return LSU
	case FineDMC:
		return DMC
	case FineBIU:
		return BIU
	case FineSCU:
		return SCU
	default:
		return DPU
	}
}

// isDPUSub reports whether f is one of the seven DPU sub-units.
func (f Fine) isDPUSub() bool { return f >= FineDPUDecode && f < NumFine }

// allUnits lists the coarse units in canonical order.
func allUnits() []Unit {
	out := make([]Unit, NumUnits)
	for i := range out {
		out[i] = Unit(i)
	}
	return out
}

// allFine lists the fine units in canonical order.
func allFine() []Fine {
	out := make([]Fine, NumFine)
	for i := range out {
		out[i] = Fine(i)
	}
	return out
}
