// Command lockstep-train builds the static error-correlation prediction
// table (Figure 10 of the paper) from a campaign log produced by
// lockstep-inject, reports its geometry (distinct diverged-SC sets, PTAR
// width, table bytes) and accuracy on a held-out split, and optionally
// dumps the table contents.
//
// Usage:
//
//	lockstep-train -data campaign.csv [-gran 7|13] [-topk N]
//	               [-train-frac 0.8] [-seed N] [-dump N]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"lockstep/internal/atomicfile"
	"lockstep/internal/core"
	"lockstep/internal/dataset"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "campaign CSV from lockstep-inject (required)")
		granFlag  = flag.Int("gran", 7, "CPU unit granularity: 7 (coarse) or 13 (fine)")
		topK      = flag.Int("topk", 0, "units stored per entry (0 = all)")
		trainFrac = flag.Float64("train-frac", 0.8, "training fraction of the split")
		seed      = flag.Int64("seed", 1, "split seed")
		dump      = flag.Int("dump", 0, "dump the N most-populated table entries")
		outImage  = flag.String("o", "", "write the binary prediction-table image (the ROM the ECU flashes)")
	)
	flag.Parse()

	if err := run(os.Stdout, *dataPath, *granFlag, *topK, *trainFrac, *seed, *dump, *outImage); err != nil {
		fmt.Fprintln(os.Stderr, "lockstep-train:", err)
		os.Exit(1)
	}
}

// run trains the table and prints the geometry/accuracy report to w.
func run(w io.Writer, dataPath string, granFlag, topK int, trainFrac float64, seed int64, dump int, outImage string) error {
	if dataPath == "" {
		return fmt.Errorf("-data is required")
	}
	var gran core.Granularity
	switch granFlag {
	case 7:
		gran = core.Coarse7
	case 13:
		gran = core.Fine13
	default:
		return fmt.Errorf("-gran must be 7 or 13")
	}

	f, err := os.Open(dataPath)
	if err != nil {
		return err
	}
	ds, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	// A table serves one lockstep mode, so lockstep-serve refuses this too.
	if _, err := ds.Mode(); err != nil {
		return fmt.Errorf("%s: %w", dataPath, err)
	}

	// The shared training entrypoint: lockstep-serve's server-side
	// training calls the same function, so a table trained online from
	// this dataset is byte-identical to this CLI's output.
	rng := rand.New(rand.NewSource(seed))
	table, train, test := core.TrainSplit(ds, rng, gran, topK, trainFrac)

	fmt.Fprintf(w, "trained %v\n", table)
	fmt.Fprintf(w, "  training records: %d (%d detected)\n", train.Len(), train.Manifested().Len())
	fmt.Fprintf(w, "  table: %d entries + default, %d bits each at top-%d, %d bytes total\n",
		table.Dict.Len(), tableEntryBits(table), effectiveK(table), (table.TableBits()+7)/8)

	balanced := test.Balanced(rng)
	soft, hard, overall := table.TypeAccuracy(balanced)
	fmt.Fprintf(w, "  held-out type accuracy (balanced): soft %.1f%%, hard %.1f%%, overall %.1f%%\n",
		100*soft, 100*hard, 100*overall)
	for k, eff := 1, effectiveK(table); k <= eff; k++ {
		if k <= 3 || k == eff {
			fmt.Fprintf(w, "  held-out location accuracy (top-%d): %.1f%%\n",
				k, 100*table.LocationAccuracy(balanced, k))
		}
	}

	if outImage != "" {
		// The image is replaced atomically: a failed write leaves no torn
		// table behind.
		var img bytes.Buffer
		n, err := table.WriteTo(&img)
		if err == nil {
			err = atomicfile.Write(outImage, img.Bytes())
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote table image: %s (%d bytes)\n", outImage, n)
	}

	if dump > 0 {
		ids := table.SortedSetsByCount()
		if len(ids) > dump {
			ids = ids[:dump]
		}
		fmt.Fprintln(w, "  most-populated entries:")
		for _, id := range ids {
			e := table.Entries[id]
			fmt.Fprintf(w, "    PTAR %4d  DSR %016x  n=%-5d type=%s  order=%s\n",
				id, table.Dict.Set(id), e.Count, typeName(e.HardBit), orderNames(gran, e.Order))
		}
	}
	return nil
}

func effectiveK(t *core.Table) int {
	if t.TopK > 0 && t.TopK < t.Gran.Units() {
		return t.TopK
	}
	return t.Gran.Units()
}

func tableEntryBits(t *core.Table) int {
	return t.TableBits() / (t.Dict.Len() + 1)
}

func typeName(hard bool) string {
	if hard {
		return "hard"
	}
	return "soft"
}

func orderNames(gran core.Granularity, order []uint8) string {
	s := ""
	for i, u := range order {
		if i > 0 {
			s += ">"
		}
		s += gran.UnitName(int(u))
	}
	return s
}
