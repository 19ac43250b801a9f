package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lockstep/internal/lockstep"
	"lockstep/internal/units"
)

// sprintfRow is the row format AppendCSV replaced, kept as its oracle:
// the fmt verbs fix every byte of the dataset and checkpoint formats.
func sprintfRow(r Record) string {
	row := fmt.Sprintf("%s,%d,%d,%d,%d,%d,%t,%d,%x,%t,%t",
		r.Kernel, r.Flop, r.Unit, r.Fine, r.Kind, r.InjectCycle,
		r.Detected, r.DetectCycle, r.DSR, r.Converged, r.Failed)
	if r.Mode != (lockstep.Mode{}) {
		row += "," + r.Mode.String()
	}
	return row
}

// TestAppendCSVMatchesSprintf holds AppendCSV (and WriteCSV, which is
// built on it) to the fmt.Sprintf format byte for byte, on random records
// in every mode, failed rows, the DSR extremes and negative and large
// cycle numbers.
func TestAppendCSVMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	modes := []lockstep.Mode{{}, {Kind: lockstep.ModeSlip}, {Kind: lockstep.ModeSlip, Slip: 16},
		{Kind: lockstep.ModeSlip, Slip: 1 << 20}, {Kind: lockstep.ModeTMR}}
	dsrs := []uint64{0, 1, 1<<62 - 1, math.MaxUint64}
	cycles := []int{0, -1, math.MinInt32, math.MaxInt32, math.MaxInt64, math.MinInt64}
	var d Dataset
	for i := 0; i < 5000; i++ {
		r := randRecord(rng)
		r.Mode = modes[rng.Intn(len(modes))]
		r.Failed = rng.Intn(8) == 0
		if rng.Intn(4) == 0 {
			r.DSR = dsrs[rng.Intn(len(dsrs))]
		}
		if rng.Intn(4) == 0 {
			r.InjectCycle = cycles[rng.Intn(len(cycles))]
		}
		if rng.Intn(4) == 0 {
			r.DetectCycle = cycles[rng.Intn(len(cycles))]
		}
		if rng.Intn(16) == 0 {
			r.Flop = cycles[rng.Intn(len(cycles))]
			r.Unit, r.Fine = units.Unit(math.MaxUint8), units.Fine(math.MaxUint8)
			r.Kind = lockstep.FaultKind(math.MaxUint8)
		}
		want := sprintfRow(r)
		if got := string(r.AppendCSV(nil)); got != want {
			t.Fatalf("record %+v: AppendCSV %q, Sprintf %q", r, got, want)
		}
		// Appending must keep what dst already holds.
		if got := string(r.AppendCSV([]byte("x"))); got != "x"+want {
			t.Fatalf("record %+v: AppendCSV onto a prefix gave %q", r, got)
		}
		d.Records = append(d.Records, r)
	}

	var want bytes.Buffer
	want.WriteString(csvHeaderMode + "\n")
	for _, r := range d.Records {
		want.WriteString(sprintfRow(r) + "\n")
	}
	var got bytes.Buffer
	if err := d.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteCSV output differs from the Sprintf rows")
	}
}

// BenchmarkWriteCSV times WriteCSV on a campaign-dcls-sized dataset.
func BenchmarkWriteCSV(b *testing.B) {
	d := randDataset(rand.New(rand.NewSource(1)), 19845)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := d.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
