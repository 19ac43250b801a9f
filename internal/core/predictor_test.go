package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/units"
)

// rec builds a detected record for synthetic training data.
func rec(dsr uint64, fine units.Fine, kind lockstep.FaultKind) dataset.Record {
	return dataset.Record{
		Kernel: "syn", Detected: true, DSR: dsr,
		Unit: fine.Coarse(), Fine: fine, Kind: kind,
		DetectCycle: 100, InjectCycle: 50,
	}
}

// synth builds a dataset where each unit u owns DSR value 1<<u (plus a
// per-unit count), perfectly separable.
func synthSeparable(perUnit int) *dataset.Dataset {
	d := &dataset.Dataset{}
	fines := []units.Fine{
		units.FinePFU, units.FineIMC, units.FineLSU, units.FineDMC,
		units.FineBIU, units.FineSCU, units.FineDPUALU,
	}
	for u, f := range fines {
		for i := 0; i < perUnit; i++ {
			kind := lockstep.Stuck1
			if i%2 == 0 {
				kind = lockstep.SoftFlip
			}
			d.Records = append(d.Records, rec(1<<uint(u+1), f, kind))
		}
	}
	return d
}

func TestSetDictBasics(t *testing.T) {
	d := NewSetDict()
	if d.Len() != 0 {
		t.Fatal("fresh dict not empty")
	}
	a := d.Add(0xABC)
	b := d.Add(0xDEF)
	if a == b {
		t.Fatal("distinct sets share an ID")
	}
	if again := d.Add(0xABC); again != a {
		t.Fatal("Add not idempotent")
	}
	if id, ok := d.ID(0xDEF); !ok || id != b {
		t.Fatal("lookup failed")
	}
	if _, ok := d.ID(0x123); ok {
		t.Fatal("phantom lookup")
	}
	if d.Set(a) != 0xABC || d.Set(b) != 0xDEF {
		t.Fatal("reverse lookup wrong")
	}
}

// TestSetDictDenseIDs: IDs are assigned densely in insertion order.
func TestSetDictDenseIDs(t *testing.T) {
	f := func(vals []uint64) bool {
		d := NewSetDict()
		seen := map[uint64]int{}
		for _, v := range vals {
			id := d.Add(v)
			if prev, dup := seen[v]; dup {
				if id != prev {
					return false
				}
			} else {
				if id != len(seen) {
					return false
				}
				seen[v] = id
			}
		}
		return d.Len() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPTARBits(t *testing.T) {
	d := NewSetDict()
	if d.PTARBits() != 1 {
		t.Fatalf("empty dict PTAR %d", d.PTARBits())
	}
	for i := 0; i < 1200; i++ {
		d.Add(uint64(i + 1))
	}
	// 1201 entries (including default) need 11 bits — the paper's value.
	if d.PTARBits() != 11 {
		t.Fatalf("1200 sets -> PTAR %d bits, want 11", d.PTARBits())
	}
}

func TestTrainSeparableLocation(t *testing.T) {
	ds := synthSeparable(10)
	for _, gran := range []Granularity{Coarse7, Fine13} {
		table := Train(ds, gran, 0)
		if acc := table.LocationAccuracy(ds, 1); acc != 1 {
			t.Fatalf("%v: separable data should give top-1 accuracy 1, got %v", gran, acc)
		}
		// Every entry's order is a permutation of all units.
		for _, e := range table.Entries {
			if !isPermutation(e.Order, gran.Units()) {
				t.Fatalf("order not a permutation: %v", e.Order)
			}
		}
		if !isPermutation(table.Default.Order, gran.Units()) {
			t.Fatal("default order not a permutation")
		}
	}
}

func TestTypeBitBalancedRule(t *testing.T) {
	// Set A: 2 soft, 4 hard. Set B: 1 soft, 8 hard.
	// Class totals: soft 3, hard 12.
	// A: soft 2/3 vs hard 4/12 -> soft wins despite raw hard majority.
	// B: soft 1/3 vs hard 8/12 -> hard wins.
	d := &dataset.Dataset{}
	for i := 0; i < 2; i++ {
		d.Records = append(d.Records, rec(0b01, units.FinePFU, lockstep.SoftFlip))
	}
	for i := 0; i < 4; i++ {
		d.Records = append(d.Records, rec(0b01, units.FinePFU, lockstep.Stuck0))
	}
	d.Records = append(d.Records, rec(0b10, units.FineIMC, lockstep.SoftFlip))
	for i := 0; i < 8; i++ {
		d.Records = append(d.Records, rec(0b10, units.FineIMC, lockstep.Stuck1))
	}
	table := Train(d, Coarse7, 0)
	if p := table.Predict(0b01); p.Hard {
		t.Fatal("set A should be predicted soft under balanced scoring")
	}
	if p := table.Predict(0b10); !p.Hard {
		t.Fatal("set B should be predicted hard")
	}
}

func TestUnknownSetHitsDefault(t *testing.T) {
	table := Train(synthSeparable(5), Coarse7, 0)
	p := table.Predict(0xF00D)
	if p.Known {
		t.Fatal("unknown set reported as known")
	}
	if !p.Hard {
		t.Fatal("default entry must predict hard (Section III-C)")
	}
	if len(p.Units) != 7 {
		t.Fatalf("default order has %d units", len(p.Units))
	}
}

func TestTopKTruncation(t *testing.T) {
	ds := synthSeparable(6)
	table := Train(ds, Coarse7, 3)
	p := table.Predict(1 << 2)
	if len(p.Units) != 3 {
		t.Fatalf("top-3 table returned %d units", len(p.Units))
	}
	// The default entry stores top-3 too, as the table image does.
	if d := table.Predict(0xFFFF); len(d.Units) != 3 {
		t.Fatalf("top-3 table's default entry returned %d units", len(d.Units))
	}
}

func TestPredictOrderCompletesPermutation(t *testing.T) {
	ds := synthSeparable(6)
	table := Train(ds, Coarse7, 2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		order, _ := table.PredictOrder(1<<3, rng)
		if !isPermutation(order, 7) {
			t.Fatalf("completed order not a permutation: %v", order)
		}
		// The stored top-2 prefix must be stable.
		p := table.Predict(1 << 3)
		if order[0] != p.Units[0] || order[1] != p.Units[1] {
			t.Fatal("prefix not preserved")
		}
	}
}

func TestTableBits(t *testing.T) {
	ds := synthSeparable(4) // 7 distinct sets
	full := Train(ds, Coarse7, 0)
	// 7 units -> 3 bits/unit; full entry = 7*3+1 = 22 bits (paper's value);
	// 8 entries including default.
	if got := full.TableBits(); got != 8*22 {
		t.Fatalf("full table bits %d, want %d", got, 8*22)
	}
	top3 := Train(ds, Coarse7, 3)
	if got := top3.TableBits(); got != 8*(3*3+1) {
		t.Fatalf("top-3 table bits %d, want %d", got, 8*10)
	}
	fine := Train(ds, Fine13, 0)
	// 13 units -> 4 bits/unit; 13*4+1 = 53 bits per entry.
	if got := fine.TableBits(); got != 8*53 {
		t.Fatalf("fine table bits %d, want %d", got, 8*53)
	}
}

func TestTypeAccuracyPureSets(t *testing.T) {
	// Soft-only set and hard-only set: both classes perfectly predictable.
	d := &dataset.Dataset{}
	for i := 0; i < 10; i++ {
		d.Records = append(d.Records, rec(0b100, units.FineLSU, lockstep.SoftFlip))
		d.Records = append(d.Records, rec(0b1000, units.FineDMC, lockstep.Stuck0))
	}
	table := Train(d, Coarse7, 0)
	soft, hard, overall := table.TypeAccuracy(d)
	if soft != 1 || hard != 1 || overall != 1 {
		t.Fatalf("pure sets should be perfectly predictable: %v %v %v", soft, hard, overall)
	}
}

func TestLocationAccuracyMonotoneInK(t *testing.T) {
	// Noisy synthetic data: unit signatures overlap.
	rng := rand.New(rand.NewSource(9))
	d := &dataset.Dataset{}
	fines := []units.Fine{units.FinePFU, units.FineIMC, units.FineLSU, units.FineDMC}
	for i := 0; i < 600; i++ {
		f := fines[rng.Intn(len(fines))]
		dsr := uint64(1)<<uint(rng.Intn(4)) | uint64(1)<<uint(4+rng.Intn(2))
		d.Records = append(d.Records, rec(dsr, f, lockstep.Stuck1))
	}
	table := Train(d, Coarse7, 0)
	prev := 0.0
	for k := 1; k <= 7; k++ {
		acc := table.LocationAccuracy(d, k)
		if acc+1e-12 < prev {
			t.Fatalf("accuracy not monotone at k=%d: %v < %v", k, acc, prev)
		}
		prev = acc
	}
	if prev != 1 {
		t.Fatalf("full-order accuracy %v, want 1", prev)
	}
}

func TestFrontendLatch(t *testing.T) {
	table := Train(synthSeparable(3), Coarse7, 0)
	fe := Frontend{Table: table}
	known := uint64(1 << 1)
	fe.LatchError(known)
	if !fe.Hit || fe.DSR != known {
		t.Fatalf("latch miss: %+v", fe)
	}
	if id, _ := table.Dict.ID(known); fe.PTAR != id {
		t.Fatalf("PTAR %d, want %d", fe.PTAR, id)
	}
	p := fe.ReadEntry()
	if len(p.Units) == 0 {
		t.Fatal("empty prediction")
	}
	fe.LatchError(0xDEAD)
	if fe.Hit {
		t.Fatal("unknown set reported hit")
	}
	if fe.PTAR != table.Dict.Len() {
		t.Fatalf("default PTAR %d, want %d", fe.PTAR, table.Dict.Len())
	}
	fe.Reset()
	if fe.DSR != 0 || fe.PTAR != 0 || fe.Hit {
		t.Fatal("reset incomplete")
	}
}

func TestDynamicLearns(t *testing.T) {
	dyn := NewDynamic(Coarse7)
	// Cold: unknown, predicts hard with some default order.
	p := dyn.Predict(0b11)
	if p.Known || !p.Hard {
		t.Fatalf("cold prediction: %+v", p)
	}
	// Teach it: set 0b11 is LSU, soft.
	for i := 0; i < 5; i++ {
		dyn.Observe(0b11, int(units.LSU), false)
	}
	p = dyn.Predict(0b11)
	if !p.Known {
		t.Fatal("history not recorded")
	}
	if p.Hard {
		t.Fatal("should predict soft after soft-only history")
	}
	if p.Units[0] != uint8(units.LSU) {
		t.Fatalf("top unit %v, want LSU", p.Units[0])
	}
	// A hard observation flips the majority at 5v5? (>= rule: ties hard)
	for i := 0; i < 5; i++ {
		dyn.Observe(0b11, int(units.LSU), true)
	}
	if p = dyn.Predict(0b11); !p.Hard {
		t.Fatal("tie should predict hard (safe default)")
	}
}

func TestGranularityHelpers(t *testing.T) {
	if Coarse7.Units() != 7 || Fine13.Units() != 13 {
		t.Fatal("unit counts wrong")
	}
	r := rec(1, units.FineDPUMul, lockstep.Stuck0)
	if Coarse7.UnitOf(r) != int(units.DPU) {
		t.Fatal("coarse unit extraction wrong")
	}
	if Fine13.UnitOf(r) != int(units.FineDPUMul) {
		t.Fatal("fine unit extraction wrong")
	}
	if Coarse7.String() != "coarse-7" || Fine13.String() != "fine-13" {
		t.Fatal("granularity names")
	}
	if Coarse7.UnitName(int(units.DPU)) != "DPU" {
		t.Fatal("unit name")
	}
}

func TestUnitDistributionsAndTypeBC(t *testing.T) {
	ds := synthSeparable(8)
	dict := NewSetDict()
	hard := UnitDistributions(ds, Coarse7, dict, true)
	soft := UnitDistributions(ds, Coarse7, dict, false)
	if len(hard) != 7 || len(soft) != 7 {
		t.Fatal("wrong distribution count")
	}
	// Each populated unit's distribution sums to ~1.
	for u, dist := range hard {
		var sum float64
		for _, p := range dist {
			sum += p
		}
		if sum != 0 && (sum < 0.999 || sum > 1.001) {
			t.Fatalf("unit %d hard distribution sums to %v", u, sum)
		}
	}
	bcs := TypeBC(ds, Coarse7)
	// In the synthetic data soft and hard errors of a unit share the same
	// set, so their distributions are identical: BC = 1.
	for u, bc := range bcs {
		if bc != 0 && (bc < 0.999 || bc > 1.001) {
			t.Fatalf("unit %d type BC %v, want ~1", u, bc)
		}
	}
}

func TestSortedSetsByCount(t *testing.T) {
	d := &dataset.Dataset{}
	for i := 0; i < 3; i++ {
		d.Records = append(d.Records, rec(0b1, units.FinePFU, lockstep.Stuck0))
	}
	d.Records = append(d.Records, rec(0b10, units.FineIMC, lockstep.Stuck0))
	table := Train(d, Coarse7, 0)
	ids := table.SortedSetsByCount()
	if table.Entries[ids[0]].Count < table.Entries[ids[len(ids)-1]].Count {
		t.Fatal("not sorted by count")
	}
	if table.Dict.Set(ids[0]) != 0b1 {
		t.Fatal("most common set should be 0b1")
	}
}

func isPermutation(order []uint8, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, u := range order {
		if int(u) >= n || seen[u] {
			return false
		}
		seen[u] = true
	}
	return true
}
