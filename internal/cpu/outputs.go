package cpu

// This file defines the CPU output port compared by the lockstep error
// checker and its grouping into signal categories (SCs). Per Section III-A
// of the paper, related output signals form a signal category; the checker
// OR-reduces per-SC differences into a one-bit divergence flag per SC
// (the Divergence Status Register).
//
// SR5 exposes 62 SCs — the same DSR width as the paper's Cortex-R5 — built
// exclusively from signals a CPU macro genuinely drives out of its sphere
// of replication:
//
//   - the instruction-port request (address + strobe)
//   - the data-port request (address, write data, strobes, byte enables)
//   - the external (BIU) bus master request
//   - the ETM-style trace port (retired PC, retired instruction,
//     writeback value/register) — the Cortex-R5 exports exactly such a
//     trace interface, and lockstep checkers compare it
//   - the exception/status outputs (exception valid, cause, EPC, halted)
//
// Internal state (fetch queue occupancy, counters, input-capture registers)
// is deliberately NOT compared: a fault must propagate to a real output
// before the checker can see it, which is what gives error manifestation
// its latency distribution and the diverged-SC sets their variety.
//
// Multi-bit buses are split into nibble- or byte-granular SCs exactly as
// the paper splits, e.g., 32 D-cache address bits into address SCs.

// NumSC is the number of signal categories (the DSR width).
const NumSC = 62

// OutVec is the CPU's registered output port sampled after a clock edge,
// one value per signal category.
type OutVec [NumSC]uint32

// SC indices. Suffix N<i> is the i-th nibble, B<i> the i-th byte,
// least significant first.
const (
	SCIAddr0 = iota // instruction port address, nibbles 0..7
	SCIAddr1
	SCIAddr2
	SCIAddr3
	SCIAddr4
	SCIAddr5
	SCIAddr6
	SCIAddr7
	SCICtl   // instruction port request strobe
	SCDAddr0 // data port address, nibbles 0..7
	SCDAddr1
	SCDAddr2
	SCDAddr3
	SCDAddr4
	SCDAddr5
	SCDAddr6
	SCDAddr7
	SCDWData0 // data port write data, nibbles 0..7
	SCDWData1
	SCDWData2
	SCDWData3
	SCDWData4
	SCDWData5
	SCDWData6
	SCDWData7
	SCDCtlRW   // data port read/write strobes
	SCDCtlBE   // data port byte enables
	SCExtAddr0 // external bus address, bytes 0..3
	SCExtAddr1
	SCExtAddr2
	SCExtAddr3
	SCExtWData0 // external bus write data, bytes 0..3
	SCExtWData1
	SCExtWData2
	SCExtWData3
	SCExtCtlRW // external bus strobes / busy / wait count
	SCExtCtlBE // external bus byte enables
	SCRetPC0   // trace: retired instruction address, bytes 0..3
	SCRetPC1
	SCRetPC2
	SCRetPC3
	SCRetInstr0 // trace: retired instruction word, bytes 0..3
	SCRetInstr1
	SCRetInstr2
	SCRetInstr3
	SCWBData0 // trace: writeback value, nibbles 0..7
	SCWBData1
	SCWBData2
	SCWBData3
	SCWBData4
	SCWBData5
	SCWBData6
	SCWBData7
	SCWBCtl // trace: retire valid / writeback enable
	SCWBReg // trace: writeback register number
	SCEPC0  // exception PC, bytes 0..3
	SCEPC1
	SCEPC2
	SCEPC3
	SCExcValid // exception flag output
	SCHalted   // halted/standby status output
	SCExcCause // exception cause bus
)

var scNames = [NumSC]string{
	"IAddrN0", "IAddrN1", "IAddrN2", "IAddrN3",
	"IAddrN4", "IAddrN5", "IAddrN6", "IAddrN7",
	"ICtl",
	"DAddrN0", "DAddrN1", "DAddrN2", "DAddrN3",
	"DAddrN4", "DAddrN5", "DAddrN6", "DAddrN7",
	"DWDataN0", "DWDataN1", "DWDataN2", "DWDataN3",
	"DWDataN4", "DWDataN5", "DWDataN6", "DWDataN7",
	"DCtlRW", "DCtlBE",
	"ExtAddrB0", "ExtAddrB1", "ExtAddrB2", "ExtAddrB3",
	"ExtWDataB0", "ExtWDataB1", "ExtWDataB2", "ExtWDataB3",
	"ExtCtlRW", "ExtCtlBE",
	"RetPCB0", "RetPCB1", "RetPCB2", "RetPCB3",
	"RetInstrB0", "RetInstrB1", "RetInstrB2", "RetInstrB3",
	"WBDataN0", "WBDataN1", "WBDataN2", "WBDataN3",
	"WBDataN4", "WBDataN5", "WBDataN6", "WBDataN7",
	"WBCtl", "WBReg",
	"EPCB0", "EPCB1", "EPCB2", "EPCB3",
	"ExcValid", "Halted", "ExcCause",
}

// SCName returns the name of signal category i.
func SCName(i int) string { return scNames[i] }

// scWidths is the number of compared signal bits in each SC.
var scWidths = func() [NumSC]int {
	var w [NumSC]int
	set := func(base, n, bits int) {
		for i := 0; i < n; i++ {
			w[base+i] = bits
		}
	}
	set(SCIAddr0, 8, 4)
	w[SCICtl] = 1
	set(SCDAddr0, 8, 4)
	set(SCDWData0, 8, 4)
	w[SCDCtlRW] = 2
	w[SCDCtlBE] = 4
	set(SCExtAddr0, 4, 8)
	set(SCExtWData0, 4, 8)
	w[SCExtCtlRW] = 5
	w[SCExtCtlBE] = 4
	set(SCRetPC0, 4, 8)
	set(SCRetInstr0, 4, 8)
	set(SCWBData0, 8, 4)
	w[SCWBCtl] = 2
	w[SCWBReg] = 4
	set(SCEPC0, 4, 8)
	w[SCExcValid] = 1
	w[SCHalted] = 1
	w[SCExcCause] = 3
	return w
}()

// scWidth returns the number of signal bits in SC i.
func scWidth(i int) int { return scWidths[i] }

// OutputPortBits is the total number of output-port signal bits each CPU
// drives to the checker (the paper's Cortex-R5 exposes ~2500; SR5 is
// proportionally smaller).
func OutputPortBits() int {
	total := 0
	for _, w := range scWidths {
		total += w
	}
	return total
}

// Outputs samples the registered output port as a function of the current
// flop state. Both lockstepped CPUs produce identical vectors every cycle
// in the absence of faults.
//
// The comparison is QUALIFIED, as in production lockstep checkers: payload
// buses (addresses, data, trace values) are only compared while their
// valid strobes are asserted, because between transactions those registers
// legitimately hold stale values the system never consumes. The strobes
// themselves are always compared, so a diverging transaction *presence* is
// still caught immediately.
func (s *State) Outputs() OutVec {
	var o OutVec
	if s.IReqValid {
		putNibbles(&o, SCIAddr0, s.IReqAddr)
	}
	o[SCICtl] = b2u(s.IReqValid)
	if s.DRe || s.DWe {
		putNibbles(&o, SCDAddr0, s.DAddr)
		o[SCDCtlBE] = uint32(s.DBE & 0xF)
	}
	if s.DWe {
		putNibbles(&o, SCDWData0, s.DWData)
	}
	o[SCDCtlRW] = b2u(s.DRe) | b2u(s.DWe)<<1
	if s.ExtBusy || s.ExtRe || s.ExtWe {
		putBytes(&o, SCExtAddr0, s.ExtAddr)
		o[SCExtCtlBE] = uint32(s.ExtBE & 0xF)
		if s.ExtWe {
			putBytes(&o, SCExtWData0, s.ExtWData)
		}
	}
	o[SCExtCtlRW] = b2u(s.ExtRe) | b2u(s.ExtWe)<<1 | b2u(s.ExtBusy)<<2 |
		uint32(s.ExtCnt&3)<<3
	if s.MWValid {
		putBytes(&o, SCRetPC0, s.MWPC)
		putBytes(&o, SCRetInstr0, s.MWInstr)
		if s.MWWen {
			putNibbles(&o, SCWBData0, s.MWVal)
			o[SCWBReg] = uint32(s.MWRd & 0xF)
		}
	}
	o[SCWBCtl] = b2u(s.MWValid) | b2u(s.MWWen)<<1
	if s.ExcValid {
		putBytes(&o, SCEPC0, s.EPC)
		o[SCExcCause] = uint32(s.ExcCause & 7)
	}
	o[SCExcValid] = b2u(s.ExcValid)
	o[SCHalted] = b2u(s.Halted)
	return o
}

func putBytes(o *OutVec, base int, v uint32) {
	o[base] = v & 0xFF
	o[base+1] = v >> 8 & 0xFF
	o[base+2] = v >> 16 & 0xFF
	o[base+3] = v >> 24 & 0xFF
}

func putNibbles(o *OutVec, base int, v uint32) {
	for i := 0; i < 8; i++ {
		o[base+i] = v >> (4 * i) & 0xF
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Diverge compares two output vectors and returns the per-SC divergence
// map as a 62-bit set (bit i set means SC i differs). This models the
// per-SC OR-reduction trees feeding the Divergence Status Register in the
// paper's Figure 6.
func Diverge(a, b *OutVec) uint64 {
	var m uint64
	for i := 0; i < NumSC; i++ {
		if a[i] != b[i] {
			m |= 1 << uint(i)
		}
	}
	return m
}

// DivergeStates returns Diverge of a.Outputs() and b.Outputs() without
// building either vector: it reads the 24 output fields of both States,
// counts a payload only while its strobes are set (Outputs'
// qualification), and folds the nibble and byte lanes of each bus into
// their SC bits with shifts and masks. The replay fast path uses it; the
// oracles keep Outputs and Diverge, so each oracle gate still compares two
// independent implementations (TestDivergeStatesMatchesOutputs holds this
// one to theirs).
func DivergeStates(a, b *State) uint64 {
	dA, dB := a.DRe || a.DWe, b.DRe || b.DWe
	eA, eB := a.ExtBusy || a.ExtRe || a.ExtWe, b.ExtBusy || b.ExtRe || b.ExtWe
	wA, wB := a.MWValid && a.MWWen, b.MWValid && b.MWWen
	return nibbleLanes(gate(a.IReqValid, a.IReqAddr)^gate(b.IReqValid, b.IReqAddr))<<SCIAddr0 |
		differ(b2u(a.IReqValid), b2u(b.IReqValid))<<SCICtl |
		nibbleLanes(gate(dA, a.DAddr)^gate(dB, b.DAddr))<<SCDAddr0 |
		nibbleLanes(gate(a.DWe, a.DWData)^gate(b.DWe, b.DWData))<<SCDWData0 |
		differ(b2u(a.DRe)|b2u(a.DWe)<<1, b2u(b.DRe)|b2u(b.DWe)<<1)<<SCDCtlRW |
		differ(gate(dA, uint32(a.DBE&0xF)), gate(dB, uint32(b.DBE&0xF)))<<SCDCtlBE |
		byteLanes(gate(eA, a.ExtAddr)^gate(eB, b.ExtAddr))<<SCExtAddr0 |
		byteLanes(gate(a.ExtWe, a.ExtWData)^gate(b.ExtWe, b.ExtWData))<<SCExtWData0 |
		differ(extCtl(a), extCtl(b))<<SCExtCtlRW |
		differ(gate(eA, uint32(a.ExtBE&0xF)), gate(eB, uint32(b.ExtBE&0xF)))<<SCExtCtlBE |
		byteLanes(gate(a.MWValid, a.MWPC)^gate(b.MWValid, b.MWPC))<<SCRetPC0 |
		byteLanes(gate(a.MWValid, a.MWInstr)^gate(b.MWValid, b.MWInstr))<<SCRetInstr0 |
		nibbleLanes(gate(wA, a.MWVal)^gate(wB, b.MWVal))<<SCWBData0 |
		differ(b2u(a.MWValid)|b2u(a.MWWen)<<1, b2u(b.MWValid)|b2u(b.MWWen)<<1)<<SCWBCtl |
		differ(gate(wA, uint32(a.MWRd&0xF)), gate(wB, uint32(b.MWRd&0xF)))<<SCWBReg |
		byteLanes(gate(a.ExcValid, a.EPC)^gate(b.ExcValid, b.EPC))<<SCEPC0 |
		differ(b2u(a.ExcValid), b2u(b.ExcValid))<<SCExcValid |
		differ(b2u(a.Halted), b2u(b.Halted))<<SCHalted |
		differ(gate(a.ExcValid, uint32(a.ExcCause&7)), gate(b.ExcValid, uint32(b.ExcCause&7)))<<SCExcCause
}

// extCtl is the SCExtCtlRW value of s.
func extCtl(s *State) uint32 {
	return b2u(s.ExtRe) | b2u(s.ExtWe)<<1 | b2u(s.ExtBusy)<<2 | uint32(s.ExtCnt&3)<<3
}

// gate is x while its strobe v is set, 0 otherwise.
func gate(v bool, x uint32) uint32 {
	if v {
		return x
	}
	return 0
}

// differ is 1 if x != y, 0 otherwise.
func differ(x, y uint32) uint64 {
	if x != y {
		return 1
	}
	return 0
}

// nibbleLanes returns the nonzero nibbles of x as an 8-bit set, bit i for
// nibble i.
func nibbleLanes(x uint32) uint64 {
	x |= x >> 2
	x |= x >> 1
	x &= 0x11111111 // bit 4i: nibble i
	x |= x >> 3
	x &= 0x03030303 // bits 8j, 8j+1: nibbles 2j, 2j+1
	x |= x >> 6
	x &= 0x000F000F // bits 16k..16k+3: nibbles 4k..4k+3
	return uint64((x | x>>12) & 0xFF)
}

// byteLanes returns the nonzero bytes of x as a 4-bit set, bit i for
// byte i.
func byteLanes(x uint32) uint64 {
	x |= x >> 4
	x |= x >> 2
	x |= x >> 1
	x &= 0x01010101 // bit 8i: byte i
	x |= x >> 7
	x &= 0x00030003 // bits 16j, 16j+1: bytes 2j, 2j+1
	return uint64((x | x>>14) & 0xF)
}
