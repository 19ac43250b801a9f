package cpu

import (
	"math/bits"
	"reflect"
	"unsafe"
)

// This file gives State a flat-word view: its 336 bytes read as
// StateWords uint64 words. One masked pass over the words of two States
// answers at once what the replay loop used to ask with three compares:
// are they equal (==), equal except at one flop (FlopLoc.EqualExcept),
// and do the fields the output port reads agree (so their Outputs()
// agree). Three tables, built at init from the registry and the field
// offsets, make the pass exact:
//
//   - fieldMask covers every byte of every field, so padding never counts
//     and a zero masked difference is exactly ==;
//   - outWords covers the bytes of the 24 fields Outputs reads, word by
//     word, so a zero difference there implies equal output vectors (not
//     the converse: Outputs qualifies payload buses by their strobes);
//   - bitFlop maps each bit of the view to the flop stored there.

// StateWords is the number of 64-bit words a State occupies.
const StateWords = int(unsafe.Sizeof(State{}) / 8)

// The word view covers all of State only while its size is a multiple of
// 8 bytes; this line stops compiling otherwise.
var _ [0]struct{} = [unsafe.Sizeof(State{}) % 8]struct{}{}

// WordMask selects bits of a State's word view.
type WordMask [StateWords]uint64

var (
	fieldMask WordMask
	outWords  []outWord
	bitFlop   [StateWords * 64]int16 // word-view bit -> flop index, -1 where no flop is stored
)

// outWord is one word of the view that holds output-field bytes: word i,
// those bytes under mask m.
type outWord struct {
	i int
	m uint64
}

// Words returns the word view of s. It aliases s.
func (s *State) Words() *[StateWords]uint64 {
	return (*[StateWords]uint64)(unsafe.Pointer(s))
}

// FieldMask returns the mask of every byte of every State field: the
// bytes == compares, without the padding between fields.
func FieldMask() WordMask { return fieldMask }

// Except returns m without the bit of the flop at l.
func (m WordMask) Except(l FlopLoc) WordMask {
	w, bit := l.Word()
	m[w] &^= bit
	return m
}

// DiffWords compares a and b word by word. rest is nonzero iff they
// differ in a bit m selects. outs is nonzero iff they differ in a byte of
// a field Outputs reads, whatever m selects: outs == 0 implies
// a.Outputs() == b.Outputs(). outs reads only the few words that hold
// output bytes (outWords), and rest stops at the first selected
// difference, since callers only test it against zero.
func DiffWords(a, b *State, m *WordMask) (rest, outs uint64) {
	x, y := a.Words(), b.Words()
	_, _, _ = x[0], y[0], m[0] // one nil check each, outside the loops
	for _, w := range outWords {
		outs |= (x[w.i] ^ y[w.i]) & w.m
	}
	for i := range x {
		if rest = (x[i] ^ y[i]) & m[i]; rest != 0 {
			break
		}
	}
	return rest, outs
}

// FlopOfBit returns the flop stored at bit i of the word view (bit i%64
// of word i/64), or -1 when that bit holds none: padding, the upper bits
// of a narrow field, or the hardwired R0.
func FlopOfBit(i int) int { return int(bitFlop[i]) }

// Word returns where l lives in the word view: word w, under the
// single-bit mask bit.
func (l FlopLoc) Word() (w int, bit uint64) {
	return wordBit(l.Off, l.Mask)
}

// wordBit places the bits m of the byte at offset off in the word view.
func wordBit(off uintptr, m uint8) (int, uint64) {
	lane := off % 8
	if !littleEndian {
		lane = 7 - lane
	}
	return int(off / 8), uint64(m) << (8 * lane)
}

func (m *WordMask) setBytes(off, n uintptr) {
	for b := off; b < off+n; b++ {
		w, bm := wordBit(b, 0xFF)
		m[w] |= bm
	}
}

// buildWordTables fills the three tables. It runs after the registry is
// built, since bitFlop reads the flop locations.
func buildWordTables() {
	t := reflect.TypeOf(State{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fieldMask.setBytes(f.Offset, f.Type.Size())
	}
	var s State
	var outMask WordMask
	for _, f := range [...][2]uintptr{
		{unsafe.Offsetof(s.IReqAddr), unsafe.Sizeof(s.IReqAddr)},
		{unsafe.Offsetof(s.IReqValid), unsafe.Sizeof(s.IReqValid)},
		{unsafe.Offsetof(s.DAddr), unsafe.Sizeof(s.DAddr)},
		{unsafe.Offsetof(s.DWData), unsafe.Sizeof(s.DWData)},
		{unsafe.Offsetof(s.DBE), unsafe.Sizeof(s.DBE)},
		{unsafe.Offsetof(s.DRe), unsafe.Sizeof(s.DRe)},
		{unsafe.Offsetof(s.DWe), unsafe.Sizeof(s.DWe)},
		{unsafe.Offsetof(s.ExtAddr), unsafe.Sizeof(s.ExtAddr)},
		{unsafe.Offsetof(s.ExtWData), unsafe.Sizeof(s.ExtWData)},
		{unsafe.Offsetof(s.ExtBE), unsafe.Sizeof(s.ExtBE)},
		{unsafe.Offsetof(s.ExtRe), unsafe.Sizeof(s.ExtRe)},
		{unsafe.Offsetof(s.ExtWe), unsafe.Sizeof(s.ExtWe)},
		{unsafe.Offsetof(s.ExtBusy), unsafe.Sizeof(s.ExtBusy)},
		{unsafe.Offsetof(s.ExtCnt), unsafe.Sizeof(s.ExtCnt)},
		{unsafe.Offsetof(s.MWRd), unsafe.Sizeof(s.MWRd)},
		{unsafe.Offsetof(s.MWVal), unsafe.Sizeof(s.MWVal)},
		{unsafe.Offsetof(s.MWPC), unsafe.Sizeof(s.MWPC)},
		{unsafe.Offsetof(s.MWInstr), unsafe.Sizeof(s.MWInstr)},
		{unsafe.Offsetof(s.MWValid), unsafe.Sizeof(s.MWValid)},
		{unsafe.Offsetof(s.MWWen), unsafe.Sizeof(s.MWWen)},
		{unsafe.Offsetof(s.Halted), unsafe.Sizeof(s.Halted)},
		{unsafe.Offsetof(s.ExcValid), unsafe.Sizeof(s.ExcValid)},
		{unsafe.Offsetof(s.ExcCause), unsafe.Sizeof(s.ExcCause)},
		{unsafe.Offsetof(s.EPC), unsafe.Sizeof(s.EPC)},
	} {
		outMask.setBytes(f[0], f[1])
	}
	for i, m := range outMask {
		if m != 0 {
			outWords = append(outWords, outWord{i, m})
		}
	}
	for i := range bitFlop {
		bitFlop[i] = -1
	}
	for f, l := range flopLoc {
		w, bit := l.Word()
		bitFlop[w*64+bits.TrailingZeros64(bit)] = int16(f)
	}
}
