package mem

import "sort"

// This file implements golden-trace memory replay: the campaign's
// injection hot path steps only the redundant (faulty) CPU, so something
// else has to play the role the main CPU used to play — driving the
// memory image forward cycle by cycle. During the one-time golden run a
// Recorder logs every RAM write; afterwards a ReplayBus can reconstruct
// the main-CPU-visible memory image at any cycle of the golden timeline
// from the reset image plus that log and serve reads for ANY address,
// which matters because a faulty redundant CPU may fetch or load from
// addresses the golden run never touched.

// WriteEvent is one golden RAM write, tagged with the cycle whose clock
// edge committed it. Events are logged in execution order, which is also
// ascending (stable) cycle order.
type WriteEvent struct {
	Cycle int32  // golden cycle the write landed
	Addr  uint32 // word-aligned RAM address
	Data  uint32
	Mask  uint32 // expanded byte-lane mask
}

// WriteEventBytes is the size of a WriteEvent, for footprint accounting.
const WriteEventBytes = 16

// Recorder wraps a System for golden-trace recording: all traffic is
// forwarded unchanged and RAM-region writes are appended to Writes,
// tagged with the caller-maintained Cycle. The recorded write log is what
// lets a ReplayBus stand in for the main CPU during injection replay.
type Recorder struct {
	Sys    *System
	Cycle  int32
	Writes []WriteEvent
}

// ReadWord implements Bus.
func (r *Recorder) ReadWord(addr uint32) uint32 { return r.Sys.ReadWord(addr) }

// WriteMasked implements Bus, logging writes that land in RAM. External
// (peripheral) writes are forwarded but not logged: replayed reads from
// the external region are pure (SensorValue), so peripheral state never
// feeds back into a replayed CPU.
func (r *Recorder) WriteMasked(addr, data, mask uint32) {
	r.Sys.WriteMasked(addr, data, mask)
	if addr < RAMBytes {
		r.Writes = append(r.Writes, WriteEvent{Cycle: r.Cycle, Addr: addr &^ 3, Data: data, Mask: mask})
	}
}

// ReplayBus serves a redundant CPU the exact memory inputs a live
// main-CPU-driven System would have: reads come from a RAM image
// reconstructed at the bus's current golden cycle (external reads are the
// pure SensorValue pattern), and writes are discarded, because a
// compare-only CPU never drives the bus (Monitor semantics).
//
// The image is installed with Load (a full copy of the reset image) and
// moved with AdvanceTo / Seek. Seek is incremental: repositioning touches
// only the words the golden write log says changed, so a worker reusing
// one ReplayBus across thousands of experiments pays word-sized deltas
// instead of a 256 KiB memcpy per experiment. The zero value is valid;
// the image buffer is allocated on first Load and reused forever after
// (zero-realloc discipline).
type ReplayBus struct {
	ram   []uint32
	base  []uint32 // the timeline's reset image (shared, read-only)
	log   []WriteEvent
	pos   int // index of the first log entry with Cycle > cycle
	cycle int // the image reflects golden RAM at the end of this cycle
}

// Cycle returns the golden cycle the image currently reflects.
func (r *ReplayBus) Cycle() int { return r.cycle }

// Load positions the bus at cycle 0 of a new golden timeline: the image
// becomes a copy of base (the RAM image before the first logged write)
// and log becomes the timeline's write history. Use Seek for subsequent
// repositioning on the same timeline.
func (r *ReplayBus) Load(base []uint32, log []WriteEvent) {
	if r.ram == nil {
		r.ram = make([]uint32, RAMBytes/4)
	}
	n := copy(r.ram, base)
	for i := n; i < len(r.ram); i++ {
		r.ram[i] = 0
	}
	r.base = base
	r.log = log
	r.pos = 0
	r.AdvanceTo(0)
}

// AdvanceTo applies all golden writes up to and including cycle, moving
// the image forward on its timeline. The injection loop calls this right
// before stepping the redundant CPU for a cycle, mirroring the legacy
// dual-CPU ordering where the main CPU's writes of cycle N are visible to
// the redundant CPU stepping cycle N.
func (r *ReplayBus) AdvanceTo(cycle int) {
	for r.pos < len(r.log) && int(r.log[r.pos].Cycle) <= cycle {
		r.log[r.pos].apply(r.ram)
		r.pos++
	}
	r.cycle = cycle
}

// Seek repositions the image to the end of golden cycle target on the
// timeline installed by the last Load. Moving forward is a plain
// AdvanceTo; moving backward resets only the words written in
// (target, current] to their reset values and replays the writes up to
// target, both tiny compared to a full image copy.
func (r *ReplayBus) Seek(target int) {
	if target >= r.cycle {
		r.AdvanceTo(target)
		return
	}
	lo := sort.Search(len(r.log), func(i int) bool { return int(r.log[i].Cycle) > target })
	// Undo writes beyond target: back to the reset image's word.
	for _, e := range r.log[lo:r.pos] {
		i := e.Addr / 4
		r.ram[i] = r.baseWord(i)
	}
	// Re-apply the writes up to the target, in order. Applying a write
	// whose effect is already present is idempotent, so words untouched
	// by the undo loop come out unchanged.
	for _, e := range r.log[:lo] {
		e.apply(r.ram)
	}
	r.pos = lo
	r.cycle = target
}

func (r *ReplayBus) baseWord(i uint32) uint32 {
	if int(i) < len(r.base) {
		return r.base[i]
	}
	return 0
}

func (e *WriteEvent) apply(ram []uint32) {
	i := e.Addr / 4
	ram[i] = ram[i]&^e.Mask | e.Data&e.Mask
}

// ReadWord implements Bus against the reconstructed image.
func (r *ReplayBus) ReadWord(addr uint32) uint32 {
	if addr >= ExtBase {
		return SensorValue(addr)
	}
	i := addr / 4
	if int(i) >= len(r.ram) {
		return 0
	}
	return r.ram[i]
}

// WriteMasked implements Bus by dropping the write, exactly like Monitor:
// a faulty redundant CPU cannot corrupt the golden image.
func (r *ReplayBus) WriteMasked(addr, data, mask uint32) {}

// Journal lets a live CPU that has left the golden timeline drive a
// ReplayBus image, the way a main CPU drives a System: its RAM writes land
// in the image, so compare-only CPUs reading the ReplayBus see them as a
// Monitor sees a System's, and each is logged with the word it
// overwrote, so Rollback can put the golden image back. Peripheral writes
// are dropped: external reads are the pure SensorValue pattern, so
// peripheral state never feeds back into a CPU. The undo buffer is reused
// across Rollbacks.
type Journal struct {
	Bus  *ReplayBus
	undo []undoWord
}

type undoWord struct {
	i   uint32 // word index
	old uint32
}

// ReadWord implements Bus against the journaled image.
func (j *Journal) ReadWord(addr uint32) uint32 { return j.Bus.ReadWord(addr) }

// WriteMasked implements Bus, writing RAM through to the image.
func (j *Journal) WriteMasked(addr, data, mask uint32) {
	i := addr / 4
	if addr >= RAMBytes || int(i) >= len(j.Bus.ram) {
		return
	}
	old := j.Bus.ram[i]
	j.undo = append(j.undo, undoWord{i: i, old: old})
	j.Bus.ram[i] = old&^mask | data&mask
}

// Rollback undoes every write since the last Rollback, newest first.
func (j *Journal) Rollback() {
	for k := len(j.undo) - 1; k >= 0; k-- {
		u := j.undo[k]
		j.Bus.ram[u.i] = u.old
	}
	j.undo = j.undo[:0]
}
