// Command lockstep-merge combines several campaign logs (e.g. produced on
// different machines, with different seeds, or covering different kernels)
// into one dataset for training — the way the paper's two-week cluster
// campaign would be assembled from per-node shards.
//
// Usage:
//
//	lockstep-merge -o merged.csv shard1.csv shard2.csv ...
//
// Exact duplicate records (identical kernel/flop/kind/cycle coordinates
// and outcome) are dropped; conflicting records for the same experiment
// coordinates are an error, since they indicate shards from incompatible
// builds. So is a mix of lockstep modes, which no table is trained from.
package main

import (
	"flag"
	"fmt"
	"os"

	"lockstep/internal/atomicfile"
	"lockstep/internal/dataset"
)

func main() {
	out := flag.String("o", "merged.csv", "output CSV path (\"-\" for stdout)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: lockstep-merge [-o merged.csv] shard.csv...")
		os.Exit(2)
	}
	// An output that cannot be written fails before any shard is read.
	if *out != "-" {
		if err := atomicfile.CheckDir(*out); err != nil {
			fmt.Fprintln(os.Stderr, "lockstep-merge:", err)
			os.Exit(1)
		}
	}
	merged, stats, err := merge(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockstep-merge:", err)
		os.Exit(1)
	}
	// A file is replaced atomically: a failed write exits 1 and leaves no
	// torn output behind.
	if *out == "-" {
		err = merged.WriteCSV(os.Stdout)
	} else {
		err = merged.WriteCSVFile(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockstep-merge:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "merged %d shards: %d records (%d duplicates dropped)\n",
		flag.NArg(), merged.Len(), stats.duplicates)
}

type mergeStats struct {
	duplicates int
}

// key identifies one experiment's coordinates.
type key struct {
	kernel string
	flop   int
	kind   uint8
	cycle  int
}

func merge(paths []string) (*dataset.Dataset, mergeStats, error) {
	var st mergeStats
	seen := map[key]dataset.Record{}
	merged := &dataset.Dataset{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, st, err
		}
		ds, err := dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range ds.Records {
			if len(merged.Records) > 0 && r.Mode != merged.Records[0].Mode {
				return nil, st, fmt.Errorf("%s: %s records after %s ones; a dataset holds one lockstep mode", path, r.Mode, merged.Records[0].Mode)
			}
			k := key{kernel: r.Kernel, flop: r.Flop, kind: uint8(r.Kind), cycle: r.InjectCycle}
			if prev, dup := seen[k]; dup {
				if prev != r {
					return nil, st, fmt.Errorf(
						"%s: conflicting outcomes for %s flop %d %v cycle %d (incompatible shards?)",
						path, r.Kernel, r.Flop, r.Kind, r.InjectCycle)
				}
				st.duplicates++
				continue
			}
			seen[k] = r
			merged.Records = append(merged.Records, r)
		}
	}
	return merged, st, nil
}
