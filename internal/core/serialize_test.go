package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/units"
)

func randomTrainingSet(rng *rand.Rand, n int) *dataset.Dataset {
	d := &dataset.Dataset{}
	fines := []units.Fine{
		units.FinePFU, units.FineIMC, units.FineLSU, units.FineDMC,
		units.FineBIU, units.FineSCU, units.FineDPUDiv, units.FineDPUMul,
	}
	for i := 0; i < n; i++ {
		kind := lockstep.FaultKind(rng.Intn(lockstep.NumFaultKinds))
		d.Records = append(d.Records, rec(
			rng.Uint64()%1024+1, fines[rng.Intn(len(fines))], kind))
	}
	return d
}

// TestTableSerializationRoundTrip: a deserialised table must predict
// identically to the original on every trained DSR and on unknown ones.
func TestTableSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, gran := range []Granularity{Coarse7, Fine13} {
		for _, topK := range []int{0, 3} {
			orig := Train(randomTrainingSet(rng, 500), gran, topK)
			var buf bytes.Buffer
			if _, err := orig.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadTable(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Gran != gran || got.TopK != topK || got.Dict.Len() != orig.Dict.Len() {
				t.Fatalf("header mismatch: %+v", got)
			}
			// Every trained set predicts identically.
			for id := 0; id < orig.Dict.Len(); id++ {
				dsr := orig.Dict.Set(id)
				a := orig.Predict(dsr)
				b := got.Predict(dsr)
				if a.Hard != b.Hard || a.Known != b.Known || len(a.Units) != len(b.Units) {
					t.Fatalf("prediction mismatch for %#x: %+v vs %+v", dsr, a, b)
				}
				for i := range a.Units {
					if a.Units[i] != b.Units[i] {
						t.Fatalf("order mismatch for %#x", dsr)
					}
				}
			}
			// Unknown sets hit an equivalent default entry.
			a := orig.Predict(0xFFFFFFFFFF)
			b := got.Predict(0xFFFFFFFFFF)
			if a.Hard != b.Hard || a.Known != b.Known {
				t.Fatalf("default mismatch: %+v vs %+v", a, b)
			}
		}
	}
}

// TestTopKPredictMatchesImage: a top-K table answers every DSR alike in
// memory and decoded from its image, at every K and both granularities:
// each trained set and 1,000 untrained ones, which hit the default entry.
func TestTopKPredictMatchesImage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, gran := range []Granularity{Coarse7, Fine13} {
		for _, topK := range []int{0, 1, 3, gran.Units()} {
			orig := Train(randomTrainingSet(rng, 500), gran, topK)
			var buf bytes.Buffer
			if _, err := orig.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			img, err := ReadTable(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var dsrs []uint64
			for id := 0; id < orig.Dict.Len(); id++ {
				dsrs = append(dsrs, orig.Dict.Set(id))
			}
			for i := uint64(0); i < 1000; i++ {
				dsr := 1<<40 | i // randomTrainingSet draws DSRs below 1025
				if _, ok := orig.Dict.ID(dsr); ok {
					t.Fatalf("DSR %#x unexpectedly trained", dsr)
				}
				dsrs = append(dsrs, dsr)
			}
			for _, dsr := range dsrs {
				if a, b := orig.Predict(dsr), img.Predict(dsr); !reflect.DeepEqual(a, b) {
					t.Fatalf("%v top-%d, DSR %#x: in memory %+v, from the image %+v", gran, topK, dsr, a, b)
				}
			}
		}
	}
}

func TestReadTableRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		// Wrong magic.
		append([]byte{0, 0, 0, 0}, make([]byte, 16)...),
	}
	for i, c := range cases {
		if _, err := ReadTable(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Valid header but truncated body.
	orig := Train(randomTrainingSet(rand.New(rand.NewSource(1)), 50), Coarse7, 0)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadTable(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated image accepted")
	}
}
