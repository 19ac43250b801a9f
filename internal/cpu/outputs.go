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
