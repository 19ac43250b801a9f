package mem

import (
	"math/rand"
	"testing"
)

// TestRecorderLogsTraffic: RAM writes are logged with their cycle tag and
// forwarded; external writes are forwarded but not logged; reads are
// forwarded unchanged.
func TestRecorderLogsTraffic(t *testing.T) {
	sys := NewSystem()
	rec := &Recorder{Sys: sys}

	rec.Cycle = 3
	rec.WriteMasked(0x100, 0xdeadbeef, 0xffffffff)
	rec.Cycle = 5
	rec.WriteMasked(0x102, 0x00ee0000, 0x00ff0000) // masked lanes, same word
	rec.WriteMasked(ExtBase+0x40, 0x1234, 0xffffffff)

	if got := sys.ReadWord(0x100); got != 0xdeeebeef {
		t.Fatalf("RAM word = %#x, want 0xdeeebeef", got)
	}
	if sys.Ext().Writes != 1 {
		t.Fatalf("peripheral saw %d writes, want 1", sys.Ext().Writes)
	}
	want := []WriteEvent{
		{Cycle: 3, Addr: 0x100, Data: 0xdeadbeef, Mask: 0xffffffff},
		{Cycle: 5, Addr: 0x100, Data: 0x00ee0000, Mask: 0x00ff0000},
	}
	if len(rec.Writes) != len(want) {
		t.Fatalf("logged %d writes, want %d (ext writes must not be logged)", len(rec.Writes), len(want))
	}
	for i, w := range want {
		if rec.Writes[i] != w {
			t.Fatalf("write %d = %+v, want %+v", i, rec.Writes[i], w)
		}
	}

	rec.Cycle = 7
	if got := rec.ReadWord(0x100); got != 0xdeeebeef {
		t.Fatalf("read through recorder = %#x, want 0xdeeebeef", got)
	}
	ext := rec.ReadWord(ExtBase + 0x80)
	if ext != SensorValue(ExtBase+0x80) {
		t.Fatalf("ext read = %#x, want pure sensor value", ext)
	}
	if len(rec.Writes) != len(want) {
		t.Fatalf("reads added to the write log: %+v", rec.Writes)
	}
}

// TestReplayBusReads: reads hit the loaded image, external addresses are
// the pure sensor pattern, out-of-range addresses read as 0, and writes
// are dropped (Monitor semantics).
func TestReplayBusReads(t *testing.T) {
	snap := make([]uint32, RAMBytes/4)
	snap[4] = 0xabcd1234
	var bus ReplayBus
	bus.Load(snap, nil)

	if got := bus.ReadWord(0x10); got != 0xabcd1234 {
		t.Fatalf("image read = %#x, want 0xabcd1234", got)
	}
	if got := bus.ReadWord(ExtBase + 0x20); got != SensorValue(ExtBase+0x20) {
		t.Fatalf("ext read = %#x, want sensor value", got)
	}
	if got := bus.ReadWord(RAMBytes + 64); got != 0 {
		t.Fatalf("out-of-range read = %#x, want 0", got)
	}
	bus.WriteMasked(0x10, 0xffffffff, 0xffffffff)
	if got := bus.ReadWord(0x10); got != 0xabcd1234 {
		t.Fatalf("write was not dropped: word now %#x", got)
	}
}

// randomLog builds a deterministic synthetic golden timeline: a write log
// plus the RAM image at every cycle, by actually applying the writes to a
// model RAM.
func randomLog(rng *rand.Rand, cycles, writesPerCycle, words int) (log []WriteEvent, at map[int][]uint32) {
	ram := make([]uint32, words)
	at = map[int][]uint32{0: append([]uint32(nil), ram...)}
	for cyc := 1; cyc <= cycles; cyc++ {
		for w := 0; w < writesPerCycle; w++ {
			e := WriteEvent{
				Cycle: int32(cyc),
				Addr:  uint32(rng.Intn(words)) * 4,
				Data:  rng.Uint32(),
				Mask:  []uint32{0xffffffff, 0x0000ffff, 0xff000000}[rng.Intn(3)],
			}
			ram[e.Addr/4] = ram[e.Addr/4]&^e.Mask | e.Data&e.Mask
			log = append(log, e)
		}
		at[cyc] = append([]uint32(nil), ram...)
	}
	return log, at
}

// TestReplayBusSeekMatchesLoad: for every (from, to) pair on a synthetic
// timeline, incrementally Seeking an image equals a fresh Load at the
// target — rewinds, forwards and no-ops all reconstruct the exact RAM.
func TestReplayBusSeekMatchesLoad(t *testing.T) {
	const cycles, words = 40, 32
	rng := rand.New(rand.NewSource(7))
	log, at := randomLog(rng, cycles, 3, words)

	check := func(bus *ReplayBus, cycle int, what string) {
		t.Helper()
		want := at[cycle]
		for i := 0; i < words; i++ {
			if got := bus.ReadWord(uint32(i) * 4); got != want[i] {
				t.Fatalf("%s at cycle %d: word %d = %#x, want %#x", what, cycle, i, got, want[i])
			}
		}
	}

	for from := 0; from <= cycles; from++ {
		for to := 0; to <= cycles; to++ {
			var bus ReplayBus
			bus.Load(at[0], log)
			check(&bus, 0, "Load")
			bus.AdvanceTo(from)
			check(&bus, from, "AdvanceTo")
			bus.Seek(to)
			if bus.Cycle() != to {
				t.Fatalf("Seek(%d->%d): Cycle() = %d", from, to, bus.Cycle())
			}
			check(&bus, to, "Seek")
			// And the image must remain seekable afterwards.
			bus.AdvanceTo(cycles)
			check(&bus, cycles, "AdvanceTo after Seek")
		}
	}
}

// TestReplayBusLoadReuse: re-Loading a shorter image zeroes the tail, so
// a buffer reused across timelines cannot leak stale words.
func TestReplayBusLoadReuse(t *testing.T) {
	full := make([]uint32, RAMBytes/4)
	for i := range full {
		full[i] = 0xffffffff
	}
	var bus ReplayBus
	bus.Load(full, nil)
	short := []uint32{1, 2, 3}
	bus.Load(short, nil)
	if got := bus.ReadWord(0); got != 1 {
		t.Fatalf("word 0 = %#x, want 1", got)
	}
	if got := bus.ReadWord(0x40); got != 0 {
		t.Fatalf("word past the short snapshot = %#x, want 0 (stale data leaked)", got)
	}
}

// TestJournalRollback: a Journal writes RAM through to the ReplayBus
// image (masked lanes, same word twice), drops peripheral and
// out-of-range writes, and Rollback restores the golden image exactly,
// after which the bus still seeks correctly.
func TestJournalRollback(t *testing.T) {
	const cycles, words = 20, 32
	rng := rand.New(rand.NewSource(3))
	log, at := randomLog(rng, cycles, 2, words)
	var bus ReplayBus
	bus.Load(at[0], log)
	bus.Seek(12)
	j := &Journal{Bus: &bus}
	for round := 0; round < 2; round++ {
		j.WriteMasked(0x8, 0x11223344, 0xffffffff)
		j.WriteMasked(0xa, 0x00ab0000, 0x00ff0000)
		j.WriteMasked(ExtBase+0x40, 0xffffffff, 0xffffffff)
		j.WriteMasked(RAMBytes+8, 0xffffffff, 0xffffffff)
		if got := bus.ReadWord(0x8); got != 0x11ab3344 {
			t.Fatalf("round %d: journaled word = %#x, want 0x11ab3344", round, got)
		}
		if got := j.ReadWord(ExtBase + 0x40); got != SensorValue(ExtBase+0x40) {
			t.Fatalf("round %d: ext read through journal = %#x", round, got)
		}
		j.Rollback()
		for i := 0; i < words; i++ {
			if got := bus.ReadWord(uint32(i) * 4); got != at[12][i] {
				t.Fatalf("round %d: word %d = %#x after Rollback, want %#x", round, i, got, at[12][i])
			}
		}
	}
	bus.Seek(3)
	for i := 0; i < words; i++ {
		if got := bus.ReadWord(uint32(i) * 4); got != at[3][i] {
			t.Fatalf("word %d = %#x after Rollback and Seek, want %#x", i, got, at[3][i])
		}
	}
}
