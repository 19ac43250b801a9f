package handler

import (
	"reflect"
	"testing"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/units"
)

// TestPredictMatchesReaction: the library prediction entry point must
// report exactly what a driven reaction would have predicted — same
// PTAR, same table hit, same type bit, same unit order — for trained
// sets, the default entry, and both error types.
func TestPredictMatchesReaction(t *testing.T) {
	h := testHandler()
	records := []dataset.Record{
		{Kernel: "k", Detected: true, DSR: 1 << 3,
			Unit: units.LSU, Fine: units.FineLSU, Kind: lockstep.Stuck0},
		{Kernel: "k", Detected: true, DSR: 1 << 20,
			Unit: units.PFU, Fine: units.FinePFU, Kind: lockstep.SoftFlip},
		{Kernel: "k", Detected: true, DSR: 0xdead, // never trained: default entry
			Unit: units.DPU, Fine: units.FineDPUALU, Kind: lockstep.Stuck1},
	}
	for _, r := range records {
		p := h.Predict(r.DSR)
		re := h.handleRecord(r)
		if p.PTAR != re.PTAR || p.Known != re.KnownSet || p.Hard != re.PredHard {
			t.Fatalf("DSR %#x: Predict (PTAR %d known %v hard %v) disagrees with reaction (PTAR %d known %v hard %v)",
				r.DSR, p.PTAR, p.Known, p.Hard, re.PTAR, re.KnownSet, re.PredHard)
		}
		if !reflect.DeepEqual(p.Order, re.PredOrder) {
			t.Fatalf("DSR %#x: Predict order %v != reaction order %v", r.DSR, p.Order, re.PredOrder)
		}
		if len(p.Units) != len(p.Order) {
			t.Fatalf("DSR %#x: %d unit names for %d units", r.DSR, len(p.Units), len(p.Order))
		}
		for i, u := range p.Order {
			if want := h.Cfg.Gran.UnitName(int(u)); p.Units[i] != want {
				t.Fatalf("DSR %#x: unit name %q at %d, want %q", r.DSR, p.Units[i], i, want)
			}
		}
	}
}
