package isa

import (
	"testing"
	"testing/quick"
)

// TestEncodeDecodeRoundTrip is a property test: any well-formed instruction
// survives an encode/decode round trip with its fields canonicalised to the
// format's encodable ranges.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(opRaw, rd, rs1, rs2 uint8, imm int32) bool {
		op := Op(opRaw%uint8(opMax-1) + 1) // valid opcodes only
		in := Instr{Op: op, Rd: rd & 0xF, Rs1: rs1 & 0xF, Rs2: rs2 & 0xF}
		switch FormatOf(op) {
		case FormatR:
			// no immediate
		case FormatI, FormatB:
			in.Imm = imm << 14 >> 14 // clamp to 18-bit signed
		case FormatJ:
			in.Imm = imm << 10 >> 10 // clamp to 22-bit signed
		case FormatU:
			in.Imm = imm &^ 0x3FF // low 10 bits not representable
		case FormatN:
			in.Rd, in.Rs1, in.Rs2 = 0, 0, 0
		}
		// Fields not carried by the format are not preserved.
		switch FormatOf(op) {
		case FormatI:
			in.Rs2 = 0
		case FormatB:
			in.Rd = 0
		case FormatJ, FormatU:
			in.Rs1, in.Rs2 = 0, 0
		}
		got := Decode(Encode(in))
		return got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInvalidOpcode(t *testing.T) {
	for _, w := range []uint32{
		0x0000_0000,                   // opcode 0
		uint32(opMax) << 26,           // first undefined
		0xFFFF_FFFF,                   // all ones
		uint32(opMax+5)<<26 | 0x12345, // undefined with junk fields
	} {
		if in := Decode(w); in.Op != OpInvalid {
			t.Errorf("Decode(%#x).Op = %v, want OpInvalid", w, in.Op)
		}
	}
}

func TestSignExtension(t *testing.T) {
	// ADDI with most negative 18-bit immediate.
	in := Instr{Op: OpADDI, Rd: 1, Rs1: 2, Imm: Imm18Min}
	if got := Decode(Encode(in)); got.Imm != Imm18Min {
		t.Errorf("imm18 min: got %d", got.Imm)
	}
	in.Imm = Imm18Max
	if got := Decode(Encode(in)); got.Imm != Imm18Max {
		t.Errorf("imm18 max: got %d", got.Imm)
	}
	// JAL with 22-bit bounds.
	j := Instr{Op: OpJAL, Rd: 15, Imm: Imm22Min}
	if got := Decode(Encode(j)); got.Imm != Imm22Min {
		t.Errorf("imm22 min: got %d", got.Imm)
	}
	j.Imm = Imm22Max
	if got := Decode(Encode(j)); got.Imm != Imm22Max {
		t.Errorf("imm22 max: got %d", got.Imm)
	}
}

func TestLUIEncoding(t *testing.T) {
	v := uint32(0xDEADB000) &^ 0x3FF
	in := Instr{Op: OpLUI, Rd: 3, Imm: int32(v)}
	got := Decode(Encode(in))
	if uint32(got.Imm) != v {
		t.Errorf("lui imm: got %#x", uint32(got.Imm))
	}
}

func TestOpClassPredicates(t *testing.T) {
	loads := []Op{OpLW, OpLH, OpLHU, OpLB, OpLBU}
	stores := []Op{OpSW, OpSH, OpSB}
	branches := []Op{OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU}
	for op := OpInvalid + 1; op.Valid(); op++ {
		if IsLoad(op) != contains(loads, op) {
			t.Errorf("IsLoad(%v) wrong", op)
		}
		if IsStore(op) != contains(stores, op) {
			t.Errorf("IsStore(%v) wrong", op)
		}
		if isBranch(op) != contains(branches, op) {
			t.Errorf("isBranch(%v) wrong", op)
		}
		if isJump(op) != (op == OpJAL || op == OpJALR) {
			t.Errorf("isJump(%v) wrong", op)
		}
		if IsStore(op) && WritesReg(op) {
			t.Errorf("store %v claims to write a register", op)
		}
		if IsLoad(op) && !WritesReg(op) {
			t.Errorf("load %v claims not to write a register", op)
		}
	}
}

func TestMemBytes(t *testing.T) {
	cases := map[Op]uint32{
		OpLW: 4, OpSW: 4, OpLH: 2, OpLHU: 2, OpSH: 2,
		OpLB: 1, OpLBU: 1, OpSB: 1, OpADD: 0, OpBEQ: 0, OpHALT: 0,
	}
	for op, want := range cases {
		if got := MemBytes(op); got != want {
			t.Errorf("MemBytes(%v) = %d, want %d", op, got, want)
		}
	}
}

func TestOpStringUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := OpInvalid + 1; op.Valid(); op++ {
		name := op.String()
		if name == "" || name == "invalid" {
			t.Errorf("op %d has no mnemonic", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("mnemonic %q used by both %d and %d", name, prev, op)
		}
		seen[name] = op
	}
}

func TestDisassembleSmoke(t *testing.T) {
	cases := map[string]Instr{
		"add r1, r2, r3":  {Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		"addi r1, r2, -5": {Op: OpADDI, Rd: 1, Rs1: 2, Imm: -5},
		"lw r4, 16(r5)":   {Op: OpLW, Rd: 4, Rs1: 5, Imm: 16},
		"sw r4, -8(r5)":   {Op: OpSW, Rs2: 4, Rs1: 5, Imm: -8},
		"beq r1, r2, 12":  {Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: 12},
		"jal r15, -3":     {Op: OpJAL, Rd: 15, Imm: -3},
		"jalr r0, r15, 0": {Op: OpJALR, Rd: 0, Rs1: 15},
		"rdcyc r7":        {Op: OpRDCYC, Rd: 7},
		"halt":            {Op: OpHALT},
		"lui r2, 0x12345": {Op: OpLUI, Rd: 2, Imm: int32(0x12345 << 10)},
	}
	for want, in := range cases {
		if got := Disassemble(in); got != want {
			t.Errorf("Disassemble(%+v) = %q, want %q", in, got, want)
		}
	}
}

func contains(ops []Op, op Op) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}
