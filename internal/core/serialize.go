package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary prediction-table image. This is the artifact a deployment flashes
// into the (ECC-protected) memory holding the prediction table — the table
// contents are static for the lifetime of the CPUs (Section III-C), so
// they are produced once at design time by lockstep-train and loaded by
// the error handler at boot.
//
// Layout (little-endian):
//
//	magic   uint32  "LSPT"
//	version uint32  1
//	gran    uint32  7 or 13
//	topK    uint32  0 = full order
//	nsets   uint32
//	then nsets entries of:
//	  dsr     uint64
//	  hardBit uint8
//	  norder  uint8
//	  order   norder bytes
//	then the default entry in the same entry format with dsr = 0.
const (
	tableMagic   = 0x4C535054 // "LSPT"
	tableVersion = 1
)

// WriteTo serialises the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	gran := uint32(7)
	if t.Gran == Fine13 {
		gran = 13
	}
	for _, v := range []uint32{tableMagic, tableVersion, gran, uint32(t.TopK), uint32(t.Dict.Len())} {
		if err := put(v); err != nil {
			return n, err
		}
	}
	writeEntry := func(dsr uint64, e *Entry) error {
		if err := put(dsr); err != nil {
			return err
		}
		if err := put(boolByte(e.HardBit)); err != nil {
			return err
		}
		if err := put(uint8(len(e.Order))); err != nil {
			return err
		}
		return put(e.Order)
	}
	for id := range t.Entries {
		if err := writeEntry(t.Dict.Set(id), &t.Entries[id]); err != nil {
			return n, err
		}
	}
	if err := writeEntry(0, &t.Default); err != nil {
		return n, err
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, nil
}

// ReadTable deserialises a table image produced by WriteTo. Probability
// scores and training counts are not part of the image (the hardware
// doesn't store them); the returned table predicts identically but cannot
// be re-analysed.
func ReadTable(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	var hdr [5]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("core: table header: %w", err)
		}
	}
	if hdr[0] != tableMagic {
		return nil, fmt.Errorf("core: bad table magic %#x", hdr[0])
	}
	if hdr[1] != tableVersion {
		return nil, fmt.Errorf("core: unsupported table version %d", hdr[1])
	}
	var gran Granularity
	switch hdr[2] {
	case 7:
		gran = Coarse7
	case 13:
		gran = Fine13
	default:
		return nil, fmt.Errorf("core: bad granularity %d", hdr[2])
	}
	t := &Table{Gran: gran, Dict: NewSetDict(), TopK: int(hdr[3])}
	nsets := int(hdr[4])
	readEntry := func() (uint64, Entry, error) {
		var dsr uint64
		if err := binary.Read(br, binary.LittleEndian, &dsr); err != nil {
			return 0, Entry{}, err
		}
		var hard, norder uint8
		if err := binary.Read(br, binary.LittleEndian, &hard); err != nil {
			return 0, Entry{}, err
		}
		if err := binary.Read(br, binary.LittleEndian, &norder); err != nil {
			return 0, Entry{}, err
		}
		if int(norder) > gran.Units() {
			return 0, Entry{}, fmt.Errorf("core: entry order length %d exceeds %d units",
				norder, gran.Units())
		}
		if t.TopK > 0 && int(norder) > t.TopK {
			// WriteTo stores at most TopK units per entry; a longer order
			// would predict differently once re-encoded.
			return 0, Entry{}, fmt.Errorf("core: entry order length %d exceeds top-K %d",
				norder, t.TopK)
		}
		order := make([]uint8, norder)
		if _, err := io.ReadFull(br, order); err != nil {
			return 0, Entry{}, err
		}
		for _, u := range order {
			if int(u) >= gran.Units() {
				return 0, Entry{}, fmt.Errorf("core: entry references unit %d", u)
			}
		}
		return dsr, Entry{Order: order, HardBit: hard != 0}, nil
	}
	for i := 0; i < nsets; i++ {
		dsr, e, err := readEntry()
		if err != nil {
			return nil, fmt.Errorf("core: entry %d: %w", i, err)
		}
		if id := t.Dict.Add(dsr); id != i {
			return nil, fmt.Errorf("core: duplicate DSR %#x in table image", dsr)
		}
		t.Entries = append(t.Entries, e)
	}
	_, def, err := readEntry()
	if err != nil {
		return nil, fmt.Errorf("core: default entry: %w", err)
	}
	t.Default = def
	return t, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
