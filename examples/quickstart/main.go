// Quickstart: the whole error-correlation-prediction story on one page.
//
// It builds a dual-CPU lockstep SR5 running an automotive kernel, trains a
// small static predictor from a quick fault-injection campaign, then
// injects a stuck-at fault, catches the divergence with the lockstep
// checker, latches the Divergence Status Register into the predictor
// front-end, and lets the prediction drive the SBIST diagnosis order —
// comparing its reaction time against the static baseline.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lockstep/internal/core"
	"lockstep/internal/cpu"
	"lockstep/internal/dataset"
	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
	"lockstep/internal/sbist"
	"lockstep/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Train the static predictor from a quick campaign on one kernel
	//    (the paper's Figure 7 flow, at toy scale).
	fmt.Println("=== 1. training campaign (ttsprk, every 12th flop) ===")
	ds, err := inject.Run(inject.Config{
		Kernels:               []string{"ttsprk"},
		RunCycles:             8000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            12,
		Seed:                  42,
	})
	if err != nil {
		return err
	}
	man := ds.Manifested()
	fmt.Printf("  %d experiments, %d manifested errors, %d distinct diverged SC sets\n",
		ds.Len(), man.Len(), ds.DistinctDSRs())

	// Split into train and test by random sampling (the paper's Figure 7)
	// and train the prediction table on the training half.
	rng := rand.New(rand.NewSource(7))
	train, test := ds.Split(rng, 0.8)
	table := core.Train(train, core.Coarse7, 0)
	fmt.Printf("  trained on %d records: %v\n\n", train.Len(), table)

	// 2. Replay one held-out error on the live lockstep pair: inject the
	//    same fault the test log describes and let the checker catch it.
	fmt.Println("=== 2. lockstep run with a held-out stuck-at fault ===")
	k := workload.ByName("ttsprk")
	golden, err := lockstep.NewGolden(k, 8000, 1000)
	if err != nil {
		return err
	}
	rec, ok := pickTestError(test, table)
	if !ok {
		return fmt.Errorf("no suitable held-out error; increase campaign size")
	}
	inj := lockstep.Injection{Flop: rec.Flop, Kind: rec.Kind, Cycle: rec.InjectCycle}
	out := lockstep.NewReplayer().InjectMode(golden, inj, lockstep.Mode{}, lockstep.StopLatency)
	if !out.Detected {
		return fmt.Errorf("fault unexpectedly masked")
	}
	flop := rec.Flop
	fmt.Printf("  injected %v at %s (unit %v), cycle %d\n",
		inj.Kind, cpu.FlopName(flop), rec.Unit, inj.Cycle)
	fmt.Printf("  checker detected divergence at cycle %d (manifestation %d cycles)\n",
		out.DetectCycle, out.ManifestationCycles(inj))
	fmt.Printf("  diverged SCs:%s\n\n", scNames(out.DSR))
	rec.DSR = out.DSR
	rec.DetectCycle = out.DetectCycle

	// 3. The predictor front-end (Figure 6 red box) resolves the DSR and
	//    the error handler reads the prediction.
	fmt.Println("=== 3. error correlation prediction ===")
	fe := core.Frontend{Table: table}
	fe.LatchError(out.DSR)
	pred := fe.ReadEntry()
	fmt.Printf("  DSR=%#x -> PTAR=%d (trained entry: %v)\n", fe.DSR, fe.PTAR, fe.Hit)
	fmt.Printf("  predicted type: %s   predicted unit order:", typeName(pred.Hard))
	for _, u := range pred.Units {
		fmt.Printf(" %s", core.Coarse7.UnitName(int(u)))
	}
	fmt.Println()
	fmt.Println()

	// 4. Reaction-time comparison: baseline SBIST orders vs the
	//    prediction-driven order for this specific error.
	fmt.Println("=== 4. SBIST reaction time for this error ===")
	tm, err := k.MeasureTiming(200000)
	if err != nil {
		return err
	}
	cfg := sbist.NewConfig(core.Coarse7, map[string]int64{k.Name: int64(tm.RestartCycles)},
		sbist.OffChipTableAccess)
	models := []sbist.Model{
		sbist.BaseRandom{Cfg: cfg},
		sbist.NewBaseAscending(cfg),
		sbist.NewBaseManifest(cfg, train),
		sbist.PredLocationOnly{Cfg: cfg, Table: table},
		sbist.PredComb{Cfg: cfg, Table: table},
	}
	for _, m := range models {
		res := m.React(rec, rng)
		fmt.Printf("  %-20s LERT %8d cycles, %d units tested\n",
			m.Name(), res.Cycles, res.UnitsTested)
	}
	fmt.Println("\nThe prediction-driven diagnosis reaches the safe state first: that")
	fmt.Println("reaction-time reduction is the paper's availability gain.")
	return nil
}

// pickTestError selects a held-out hard error whose diverged-SC signature
// the trained table knows — the case where the predictor can help.
func pickTestError(test *dataset.Dataset, table *core.Table) (dataset.Record, bool) {
	for _, r := range test.Records {
		if !r.Detected || !r.Hard() {
			continue
		}
		if _, known := table.Dict.ID(r.DSR); !known {
			continue
		}
		p := table.Predict(r.DSR)
		if len(p.Units) > 0 && p.Units[0] == uint8(r.Unit) {
			return r, true
		}
	}
	return dataset.Record{}, false
}

func typeName(hard bool) string {
	if hard {
		return "hard (permanent)"
	}
	return "soft (transient)"
}

func scNames(dsr uint64) string {
	s := ""
	for i := 0; i < cpu.NumSC; i++ {
		if dsr>>uint(i)&1 != 0 {
			s += " " + cpu.SCName(i)
		}
	}
	return s
}
