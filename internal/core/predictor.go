// Package core implements the paper's primary contribution: lockstep error
// correlation prediction. From the diverged-SC map latched in the
// Divergence Status Register (DSR) at error detection, a static predictor
// looks up (1) the likely CPU unit(s) the fault originated in, ordered by
// probability, and (2) a one-bit error-type prediction (soft vs hard).
//
// The package mirrors the hardware organisation of the paper's Figure 6 and
// the training flow of Figure 10:
//
//   - SetDict is the address-mapping logic that maps a sparse 62-bit DSR
//     value onto a dense Prediction Table Address Register (PTAR) index;
//   - Table is the prediction table: one entry per observed diverged-SC
//     set holding the ordered unit list and the error-type bit, plus the
//     extra default entry to which all unobserved sets map;
//   - Train builds the table from a training dataset by accumulating
//     per-set histograms of faulty units and fault types and converting
//     them to probability scores.
package core

import (
	"fmt"
	"math/rand"
	"sort"

	"lockstep/internal/dataset"
	"lockstep/internal/stats"
	"lockstep/internal/units"
)

// Granularity selects the CPU logical organisation the predictor works at:
// the seven coarse units of Figure 8 or the thirteen fine units of
// Section V-D (DPU split into seven sub-units).
type Granularity int

// Granularities.
const (
	Coarse7 Granularity = iota
	Fine13
)

// Units returns the number of units at this granularity.
func (g Granularity) Units() int {
	if g == Fine13 {
		return units.NumFine
	}
	return units.NumUnits
}

// UnitName names unit u at this granularity.
func (g Granularity) UnitName(u int) string {
	if g == Fine13 {
		return units.Fine(u).String()
	}
	return units.Unit(u).String()
}

// UnitOf extracts the record's faulty unit at this granularity.
func (g Granularity) UnitOf(r dataset.Record) int {
	if g == Fine13 {
		return int(r.Fine)
	}
	return int(r.Unit)
}

func (g Granularity) String() string {
	if g == Fine13 {
		return "fine-13"
	}
	return "coarse-7"
}

// SetDict is the DSR-to-PTAR address mapping: it assigns dense IDs to the
// distinct diverged-SC sets observed during training.
type SetDict struct {
	ids  map[uint64]int
	sets []uint64
}

// NewSetDict returns an empty dictionary.
func NewSetDict() *SetDict {
	return &SetDict{ids: make(map[uint64]int)}
}

// Add interns a DSR value, returning its dense ID.
func (d *SetDict) Add(dsr uint64) int {
	if id, ok := d.ids[dsr]; ok {
		return id
	}
	id := len(d.sets)
	d.ids[dsr] = id
	d.sets = append(d.sets, dsr)
	return id
}

// ID looks up a DSR value without interning.
func (d *SetDict) ID(dsr uint64) (int, bool) {
	id, ok := d.ids[dsr]
	return id, ok
}

// Len is the number of distinct sets (the paper observes ~1200 on the
// Cortex-R5; the PTAR must be wide enough to address Len()+1 entries).
func (d *SetDict) Len() int { return len(d.sets) }

// Set returns the DSR value of a dense ID.
func (d *SetDict) Set(id int) uint64 { return d.sets[id] }

// PTARBits is the Prediction Table Address Register width needed to
// address every table entry plus the default entry. The paper's 1200 sets
// need 11 bits.
func (d *SetDict) PTARBits() int {
	n := d.Len() + 1
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// Entry is one prediction table entry (Figure 10b): CPU units in
// descending order of probability score, and the 1-bit error type
// prediction (true = hard).
type Entry struct {
	Order   []uint8 // most likely first: every unit, or the table's TopK
	HardBit bool
	Count   int // training samples behind this entry
}

// Table is the trained prediction table.
type Table struct {
	Gran    Granularity
	Dict    *SetDict
	Entries []Entry // indexed by set ID
	Default Entry   // the extra entry for unobserved sets
	TopK    int     // units stored per entry, the default's included (0 = all)
}

// Prediction is the table's answer for one detected error.
type Prediction struct {
	Units []uint8 // predicted test order (TopK units if truncated)
	Hard  bool    // predicted error type
	Known bool    // false when the DSR hit the default entry
}

// Train builds a prediction table from the training dataset at the given
// granularity, per the paper's Section IV-C2: for every diverged SC set,
// the probability score of each unit is its histogram count divided by the
// set's total count, and the error-type bit is set if hard errors dominate
// the set. topK limits how many units each entry stores, the default
// entry's included (0 keeps all), exactly as the table image stores them.
func Train(train *dataset.Dataset, gran Granularity, topK int) *Table {
	nu := gran.Units()
	dict := NewSetDict()
	type hist struct {
		unit []float64
		hard int
		soft int
	}
	var hists []hist
	for _, r := range train.Records {
		if !r.Detected {
			continue
		}
		id := dict.Add(r.DSR)
		if id == len(hists) {
			hists = append(hists, hist{unit: make([]float64, nu)})
		}
		h := &hists[id]
		h.unit[gran.UnitOf(r)]++
		if r.Hard() {
			h.hard++
		} else {
			h.soft++
		}
	}
	t := &Table{Gran: gran, Dict: dict, TopK: topK}
	t.Entries = make([]Entry, len(hists))
	// Class totals for the balanced type scores: the paper's datasets are
	// class-balanced, so the per-set soft/hard probability scores compare
	// class-conditional likelihoods P(set|soft) vs P(set|hard) rather than
	// raw counts (which the campaign's 2-hard-kinds-to-1-soft injection
	// ratio would bias).
	var totalSoft, totalHard float64
	for _, h := range hists {
		totalSoft += float64(h.soft)
		totalHard += float64(h.hard)
	}
	if totalSoft == 0 {
		totalSoft = 1
	}
	if totalHard == 0 {
		totalHard = 1
	}
	// Global histogram for the default entry's unit order.
	global := make([]float64, nu)
	for id, h := range hists {
		total := float64(h.hard + h.soft)
		scores := make([]float64, nu)
		for u := range scores {
			scores[u] = h.unit[u] / total
			global[u] += h.unit[u]
		}
		softScore := float64(h.soft) / totalSoft
		hardScore := float64(h.hard) / totalHard
		t.Entries[id] = Entry{
			Order:   t.stored(orderFromScores(scores)),
			HardBit: hardScore > softScore,
			Count:   h.hard + h.soft,
		}
	}
	// Default entry: unobserved sets are always treated as hard errors and
	// use the default order of CPU units (Section III-C). We use the
	// global manifestation histogram as that default order.
	t.Default = Entry{
		Order:   t.stored(orderFromScores(stats.Normalize(global))),
		HardBit: true,
	}
	return t
}

// stored cuts a full unit order to the units an entry stores.
func (t *Table) stored(order []uint8) []uint8 {
	if t.TopK > 0 && t.TopK < len(order) {
		return order[:t.TopK]
	}
	return order
}

func orderFromScores(scores []float64) []uint8 {
	idx := stats.ArgsortDesc(scores)
	order := make([]uint8, len(idx))
	for i, u := range idx {
		order[i] = uint8(u)
	}
	return order
}

// Predict looks up the DSR latched at error detection. Unobserved sets hit
// the default entry: type is taken to be hard and the default unit order is
// returned, with Known=false.
func (t *Table) Predict(dsr uint64) Prediction {
	id, ok := t.Dict.ID(dsr)
	e := &t.Default
	if ok {
		e = &t.Entries[id]
	}
	return Prediction{Units: e.Order, Hard: e.HardBit, Known: ok}
}

// PredictOrder returns the full diagnostic order implied by a prediction:
// the predicted units first, then — if the entry was truncated to top-K —
// the remaining units in random order (the paper tests remaining units
// randomly so truncated predictors get no unfair ordering advantage).
func (t *Table) PredictOrder(dsr uint64, rng *rand.Rand) ([]uint8, bool) {
	p := t.Predict(dsr)
	nu := t.Gran.Units()
	if len(p.Units) == nu {
		return p.Units, p.Hard
	}
	seen := make([]bool, nu)
	order := make([]uint8, 0, nu)
	order = append(order, p.Units...)
	for _, u := range p.Units {
		seen[u] = true
	}
	rest := make([]uint8, 0, nu-len(order))
	for u := 0; u < nu; u++ {
		if !seen[u] {
			rest = append(rest, uint8(u))
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return append(order, rest...), p.Hard
}

// TableBits is the prediction table storage size in bits: per entry,
// unitBits per stored unit plus the 1-bit type — the sizing analysis of
// Sections V-B/V-C (e.g. 22 bits/entry for 7 units, 3.2KB for 1201
// entries).
func (t *Table) TableBits() int {
	nu := t.Gran.Units()
	unitBits := 0
	for 1<<unitBits < nu {
		unitBits++
	}
	per := t.TopK
	if per == 0 || per > nu {
		per = nu
	}
	entryBits := per*unitBits + 1
	return (t.Dict.Len() + 1) * entryBits
}

// String summarises the table.
func (t *Table) String() string {
	return fmt.Sprintf("core.Table{%s, %d sets, PTAR %d bits, %d B}",
		t.Gran, t.Dict.Len(), t.Dict.PTARBits(), (t.TableBits()+7)/8)
}

// UnitDistributions computes, for each unit, the probability distribution
// over diverged-SC sets of the given fault class — the histograms behind
// the paper's Figures 4 (hard) and 5 (soft). The set axis is the supplied
// dictionary; records whose DSR is not in dict are interned first, so pass
// a dict shared across classes for aligned axes.
func UnitDistributions(ds *dataset.Dataset, gran Granularity, dict *SetDict, hard bool) [][]float64 {
	nu := gran.Units()
	counts := make([][]float64, nu)
	for _, r := range ds.Records {
		if !r.Detected || r.Hard() != hard {
			continue
		}
		dict.Add(r.DSR)
	}
	for u := range counts {
		counts[u] = make([]float64, dict.Len())
	}
	for _, r := range ds.Records {
		if !r.Detected || r.Hard() != hard {
			continue
		}
		id, _ := dict.ID(r.DSR)
		counts[gran.UnitOf(r)][id]++
	}
	out := make([][]float64, nu)
	for u := range counts {
		out[u] = stats.Normalize(counts[u])
	}
	return out
}

// TypeBC computes, per unit, the Bhattacharyya coefficient between that
// unit's hard-error and soft-error distributions over diverged-SC sets
// (Section III-B: 0.3 for the Instruction Memory Control Unit, 0.95 for
// the Data Processing Unit, 0.6 on average on the Cortex-R5).
func TypeBC(ds *dataset.Dataset, gran Granularity) []float64 {
	dict := NewSetDict()
	hard := UnitDistributions(ds, gran, dict, true)
	soft := UnitDistributions(ds, gran, dict, false)
	out := make([]float64, gran.Units())
	for u := range out {
		h, s := hard[u], soft[u]
		// Align lengths: the dict grew while scanning soft records.
		if len(h) < len(s) {
			h = append(append([]float64{}, h...), make([]float64, len(s)-len(h))...)
		}
		out[u] = stats.Bhattacharyya(h, s)
	}
	return out
}

// Accuracy metrics ------------------------------------------------------

// TypeAccuracy scores the table's error-type prediction on a test set,
// returning (soft accuracy, hard accuracy, overall) as in Table III.
func (t *Table) TypeAccuracy(test *dataset.Dataset) (soft, hard, overall float64) {
	var softOK, softN, hardOK, hardN int
	for _, r := range test.Records {
		if !r.Detected {
			continue
		}
		p := t.Predict(r.DSR)
		if r.Hard() {
			hardN++
			if p.Hard {
				hardOK++
			}
		} else {
			softN++
			if !p.Hard {
				softOK++
			}
		}
	}
	if softN > 0 {
		soft = float64(softOK) / float64(softN)
	}
	if hardN > 0 {
		hard = float64(hardOK) / float64(hardN)
	}
	if softN+hardN > 0 {
		overall = float64(softOK+hardOK) / float64(softN+hardN)
	}
	return soft, hard, overall
}

// LocationAccuracy is the probability the faulty unit appears among the
// first k predicted units, measured over detected hard errors in the test
// set (the paper's Figures 12 and 15). k=0 uses the table's TopK.
func (t *Table) LocationAccuracy(test *dataset.Dataset, k int) float64 {
	if k <= 0 {
		k = t.TopK
	}
	if k <= 0 || k > t.Gran.Units() {
		k = t.Gran.Units()
	}
	var ok, n int
	for _, r := range test.Records {
		if !r.Detected || !r.Hard() {
			continue
		}
		n++
		p := t.Predict(r.DSR)
		lim := k
		if lim > len(p.Units) {
			lim = len(p.Units)
		}
		truth := uint8(t.Gran.UnitOf(r))
		for i := 0; i < lim; i++ {
			if p.Units[i] == truth {
				ok++
				break
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}

// SortedSetsByCount returns set IDs ordered by descending training count,
// useful for printing the head of the distribution histograms.
func (t *Table) SortedSetsByCount() []int {
	ids := make([]int, len(t.Entries))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		return t.Entries[ids[a]].Count > t.Entries[ids[b]].Count
	})
	return ids
}
