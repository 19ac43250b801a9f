// ABS ECU scenario: error reaction time in a safety-critical wheel-speed
// channel.
//
// An anti-lock-braking ECU runs the road-speed kernel on a dual-CPU
// lockstep SR5 (ASIL-D style, Section I of the paper). The error reaction
// budget is statically provisioned for the worst case — running every
// unit's software test library — and any runtime reduction adds directly
// to system availability.
//
// This example trains the error-correlation predictor on two *other*
// kernels (tooth-to-spark and PWM), then subjects the wheel-speed channel
// to a mixed batch of transient and permanent faults and compares the
// reaction time of the worst-case baseline flow against the
// prediction-driven flow — including cross-workload generalisation of the
// trained table.
//
// Run with: go run ./examples/abs-ecu
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lockstep/internal/avail"
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
	// 1. Train on other workloads — the ECU's predictor table is built at
	//    design time, not on the deployed application.
	fmt.Println("=== training the predictor on ttsprk + puwmod ===")
	trainDS, err := inject.Run(inject.Config{
		Kernels:               []string{"ttsprk", "puwmod"},
		RunCycles:             8000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            4,
		Seed:                  11,
	})
	if err != nil {
		return err
	}
	table := core.Train(trainDS, core.Coarse7, 4) // paper's sweet spot: top-4 units
	fmt.Printf("  %v (top-%d entries)\n\n", table, 4)

	// 2. The deployed channel: rspeed on the lockstep pair.
	k := workload.ByName("rspeed")
	golden, err := lockstep.NewGolden(k, 10000, 1250)
	if err != nil {
		return err
	}
	tm, err := k.MeasureTiming(200000)
	if err != nil {
		return err
	}
	fmt.Printf("=== wheel-speed channel: %s (restart penalty %d cycles) ===\n\n",
		k.Name, tm.RestartCycles)

	cfg := sbist.NewConfig(core.Coarse7,
		map[string]int64{k.Name: int64(tm.RestartCycles)}, sbist.OffChipTableAccess)
	baseline := sbist.NewBaseAscending(cfg)
	predictor := sbist.PredComb{Cfg: cfg, Table: table}

	// The statically provisioned reaction budget: every STL plus restart.
	var budget int64 = sbist.OffChipTableAccess + int64(tm.RestartCycles)
	for _, l := range cfg.STL {
		budget += l
	}
	fmt.Printf("provisioned worst-case reaction budget: %d cycles\n\n", budget)

	// 3. A service life of faults: random flops, mixed kinds.
	rng := rand.New(rand.NewSource(2026))
	var detected []dataset.Record
	rep := lockstep.NewReplayer()
	for len(detected) < 12 {
		flop := rng.Intn(cpu.NumFlops())
		kind := lockstep.FaultKind(rng.Intn(lockstep.NumFaultKinds))
		cycle := 1000 + rng.Intn(8000)
		out := rep.InjectMode(golden, lockstep.Injection{Flop: flop, Kind: kind, Cycle: cycle}, lockstep.Mode{}, lockstep.StopLatency)
		if !out.Detected {
			continue
		}
		detected = append(detected, dataset.Record{
			Kernel: k.Name, Flop: flop,
			Unit: cpu.FlopUnit(flop), Fine: cpu.FlopFine(flop),
			Kind: kind, InjectCycle: cycle, Detected: true,
			DetectCycle: out.DetectCycle, DSR: out.DSR,
		})
	}

	fmt.Println("error  fault                       truth  base-ascending   pred-comb     saved")
	var baseSum, predSum, savedVsBudget int64
	for i, rec := range detected {
		b := baseline.React(rec, rng)
		p := predictor.React(rec, rng)
		baseSum += b.Cycles
		predSum += p.Cycles
		savedVsBudget += budget - p.Cycles
		fmt.Printf("  #%-2d  %-26s %-5s  %9d cyc   %9d cyc  %6.1f%%\n",
			i+1, fmt.Sprintf("%s in %s", rec.Kind, cpu.FlopName(rec.Flop)),
			truth(rec), b.Cycles, p.Cycles,
			100*(1-float64(p.Cycles)/float64(b.Cycles)))
	}
	n := int64(len(detected))
	fmt.Printf("\nmean reaction time: baseline %d cyc, predictor %d cyc (%.1f%% faster)\n",
		baseSum/n, predSum/n, 100*(1-float64(predSum)/float64(baseSum)))
	fmt.Printf("runtime margin recovered vs provisioned budget: %d cycles/error on average\n",
		savedVsBudget/n)

	// Fleet-level availability: a 400 MHz ECU with a 1000-FIT detected
	// lockstep error rate.
	profile := avail.FromFIT(1000, 400e6)
	imp := profile.Compare(float64(baseSum/n), float64(predSum/n))
	fmt.Printf("\nat 1000 FIT on a 400 MHz ECU: %v\n", imp)
	fmt.Printf("availability: baseline %.12f -> predictor %.12f\n",
		profile.Availability(float64(baseSum/n)),
		profile.Availability(float64(predSum/n)))
	fmt.Println("\nEvery recovered cycle is slack before the ABS hard deadline — the")
	fmt.Println("availability increase the paper quantifies at 42-65%.")
	return nil
}

func truth(r dataset.Record) string {
	if r.Hard() {
		return "hard"
	}
	return "soft"
}
