// Package isa defines SR32, the 32-bit RISC instruction set executed by the
// SR5 CPU model. SR32 is a small fixed-width ISA in the spirit of the
// embedded cores used in safety-critical ECUs: 16 general-purpose registers,
// two-operand ALU instructions, register-relative loads/stores, compare-and-
// branch instructions, and a handful of system instructions.
//
// Encoding (32 bits, big fields first):
//
//	R-type:  op[31:26] rd[25:22] rs1[21:18] rs2[17:14] zero[13:0]
//	I-type:  op[31:26] rd[25:22] rs1[21:18] imm18[17:0]   (sign-extended)
//	B-type:  op[31:26] rs1[25:22] rs2[21:18] imm18[17:0]  (instr offset)
//	J-type:  op[31:26] rd[25:22] imm22[21:0]              (instr offset)
//	U-type:  op[31:26] rd[25:22] imm22[21:0]              (value << 10)
//
// Branch and jump offsets are counted in instructions (4-byte units)
// relative to the instruction following the branch.
package isa

import "fmt"

// NumRegs is the number of architectural general-purpose registers.
// R0 is hardwired to zero; writes to it are discarded.
const NumRegs = 16

// WordBytes is the architectural word size in bytes.
const WordBytes = 4

// Op is an SR32 opcode.
type Op uint8

// Opcode space. The zero value is OpInvalid so that uninitialised
// instruction words decode to an illegal instruction rather than a NOP.
const (
	OpInvalid Op = iota

	// R-type ALU.
	OpADD
	OpSUB
	OpAND
	OpOR
	OpXOR
	OpSLL
	OpSRL
	OpSRA
	OpSLT
	OpSLTU
	OpMUL
	OpMULH
	OpDIV
	OpREM

	// I-type ALU.
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLTI
	OpSLLI
	OpSRLI
	OpSRAI

	// U-type.
	OpLUI

	// Loads (I-type: rd <- mem[rs1+imm]).
	OpLW
	OpLH
	OpLHU
	OpLB
	OpLBU

	// Stores (B-type field layout: mem[rs1+imm] <- rs2).
	OpSW
	OpSH
	OpSB

	// Branches (B-type).
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// Jumps.
	OpJAL  // J-type: rd <- pc+4; pc <- pc+4+imm*4
	OpJALR // I-type: rd <- pc+4; pc <- (rs1+imm*4)

	// System.
	OpRDCYC // I-type, rd <- cycle counter (low 32 bits); rs1/imm ignored
	OpHALT  // stops the CPU; outputs quiesce

	opMax
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpADD:     "add", OpSUB: "sub", OpAND: "and", OpOR: "or", OpXOR: "xor",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra", OpSLT: "slt", OpSLTU: "sltu",
	OpMUL: "mul", OpMULH: "mulh", OpDIV: "div", OpREM: "rem",
	OpADDI: "addi", OpANDI: "andi", OpORI: "ori", OpXORI: "xori",
	OpSLTI: "slti", OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpLUI: "lui",
	OpLW:  "lw", OpLH: "lh", OpLHU: "lhu", OpLB: "lb", OpLBU: "lbu",
	OpSW: "sw", OpSH: "sh", OpSB: "sb",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpBLTU: "bltu", OpBGEU: "bgeu",
	OpJAL: "jal", OpJALR: "jalr",
	OpRDCYC: "rdcyc", OpHALT: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o > OpInvalid && o < opMax }

// Format describes the field layout of an opcode.
type Format uint8

// Instruction formats.
const (
	FormatR Format = iota // rd, rs1, rs2
	FormatI               // rd, rs1, imm18
	FormatB               // rs1, rs2, imm18
	FormatJ               // rd, imm22
	FormatU               // rd, imm22
	FormatN               // no operands (HALT)
)

// FormatOf returns the encoding format used by op.
func FormatOf(op Op) Format {
	switch op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA,
		OpSLT, OpSLTU, OpMUL, OpMULH, OpDIV, OpREM:
		return FormatR
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLTI, OpSLLI, OpSRLI, OpSRAI,
		OpLW, OpLH, OpLHU, OpLB, OpLBU, OpJALR, OpRDCYC:
		return FormatI
	case OpSW, OpSH, OpSB, OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return FormatB
	case OpJAL:
		return FormatJ
	case OpLUI:
		return FormatU
	case OpHALT:
		return FormatN
	default:
		return FormatN
	}
}

// IsLoad reports whether op reads data memory.
func IsLoad(op Op) bool {
	switch op {
	case OpLW, OpLH, OpLHU, OpLB, OpLBU:
		return true
	}
	return false
}

// IsStore reports whether op writes data memory.
func IsStore(op Op) bool {
	switch op {
	case OpSW, OpSH, OpSB:
		return true
	}
	return false
}

// isBranch reports whether op is a conditional branch.
func isBranch(op Op) bool {
	switch op {
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return true
	}
	return false
}

// isJump reports whether op unconditionally redirects the PC.
func isJump(op Op) bool { return op == OpJAL || op == OpJALR }

// WritesReg reports whether op writes a destination register.
func WritesReg(op Op) bool {
	switch FormatOf(op) {
	case FormatR, FormatI, FormatJ, FormatU:
		return !IsStore(op) // stores use FormatB so this is always true here
	}
	return false
}

// MemBytes returns the access width in bytes for a load or store opcode,
// and zero for other opcodes.
func MemBytes(op Op) uint32 {
	switch op {
	case OpLW, OpSW:
		return 4
	case OpLH, OpLHU, OpSH:
		return 2
	case OpLB, OpLBU, OpSB:
		return 1
	}
	return 0
}

// Immediate field limits.
const (
	Imm18Min  = -(1 << 17)
	Imm18Max  = 1<<17 - 1
	Imm22Min  = -(1 << 21)
	Imm22Max  = 1<<21 - 1
	UImm22Max = 1<<22 - 1
)

// Instr is a decoded SR32 instruction.
type Instr struct {
	Op  Op
	Rd  uint8 // destination register (R/I/J/U)
	Rs1 uint8 // first source register (R/I/B)
	Rs2 uint8 // second source register (R/B)
	Imm int32 // sign-extended immediate (I/B/J); U holds imm<<10 as int32
}

// Encode packs the instruction into its 32-bit machine word.
// Field values outside their encodable range are truncated; use the
// assembler for range checking.
func Encode(in Instr) uint32 {
	w := uint32(in.Op) << 26
	switch FormatOf(in.Op) {
	case FormatR:
		w |= uint32(in.Rd&0xF) << 22
		w |= uint32(in.Rs1&0xF) << 18
		w |= uint32(in.Rs2&0xF) << 14
	case FormatI:
		w |= uint32(in.Rd&0xF) << 22
		w |= uint32(in.Rs1&0xF) << 18
		w |= uint32(in.Imm) & 0x3FFFF
	case FormatB:
		w |= uint32(in.Rs1&0xF) << 22
		w |= uint32(in.Rs2&0xF) << 18
		w |= uint32(in.Imm) & 0x3FFFF
	case FormatJ:
		w |= uint32(in.Rd&0xF) << 22
		w |= uint32(in.Imm) & 0x3FFFFF
	case FormatU:
		w |= uint32(in.Rd&0xF) << 22
		w |= (uint32(in.Imm) >> 10) & 0x3FFFFF
	case FormatN:
		// opcode only
	}
	return w
}

// Decode unpacks a 32-bit machine word. Words whose opcode field is not a
// defined opcode decode to an Instr with Op == OpInvalid; the CPU raises an
// illegal-instruction exception for those.
func Decode(w uint32) Instr {
	op := Op(w >> 26)
	if !op.Valid() {
		return Instr{Op: OpInvalid}
	}
	in := Instr{Op: op}
	switch FormatOf(op) {
	case FormatR:
		in.Rd = uint8(w >> 22 & 0xF)
		in.Rs1 = uint8(w >> 18 & 0xF)
		in.Rs2 = uint8(w >> 14 & 0xF)
	case FormatI:
		in.Rd = uint8(w >> 22 & 0xF)
		in.Rs1 = uint8(w >> 18 & 0xF)
		in.Imm = signExtend18(w)
	case FormatB:
		in.Rs1 = uint8(w >> 22 & 0xF)
		in.Rs2 = uint8(w >> 18 & 0xF)
		in.Imm = signExtend18(w)
	case FormatJ:
		in.Rd = uint8(w >> 22 & 0xF)
		in.Imm = signExtend22(w)
	case FormatU:
		in.Rd = uint8(w >> 22 & 0xF)
		in.Imm = int32(w & 0x3FFFFF << 10)
	}
	return in
}

func signExtend18(w uint32) int32 {
	return int32(w<<14) >> 14
}

func signExtend22(w uint32) int32 {
	return int32(w<<10) >> 10
}

// Disassemble renders the instruction in assembler syntax.
func Disassemble(in Instr) string {
	switch FormatOf(in.Op) {
	case FormatR:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case FormatI:
		if IsLoad(in.Op) {
			return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Imm, in.Rs1)
		}
		if in.Op == OpJALR {
			return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
		}
		if in.Op == OpRDCYC {
			return fmt.Sprintf("%s r%d", in.Op, in.Rd)
		}
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case FormatB:
		if IsStore(in.Op) {
			return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rs2, in.Imm, in.Rs1)
		}
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case FormatJ:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	case FormatU:
		return fmt.Sprintf("%s r%d, 0x%x", in.Op, in.Rd, uint32(in.Imm)>>10)
	default:
		return in.Op.String()
	}
}
