// Live error-handler episodes: the complete Figure 9c flow on a running
// dual-CPU lockstep system, with cycle-stamped reaction timelines.
//
// Two episodes are played out on a live DMR pair running the CAN kernel:
//
//  1. a transient flip — detected, predicted, handled by reset & restart,
//     after which the pair provably resumes lockstep;
//  2. a stuck-at fault — detected, diagnosed by STLs in the predicted
//     order, and confirmed as a permanent failure (fail-safe state).
//
// Run with: go run ./examples/error-handler
package main

import (
	"fmt"
	"log"
	"os"

	"lockstep/internal/core"
	"lockstep/internal/cpu"
	"lockstep/internal/handler"
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
	const kernel = "canrdr"

	// Design time: train the predictor and build the handler.
	fmt.Println("=== design time: training the prediction table ===")
	ds, err := inject.Run(inject.Config{
		Kernels:               []string{kernel},
		RunCycles:             8000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            3,
		Seed:                  5,
	})
	if err != nil {
		return err
	}
	table := core.Train(ds, core.Coarse7, 0)
	fmt.Printf("  %v from %d experiments\n\n", table, ds.Len())

	k := workload.ByName(kernel)
	tm, err := k.MeasureTiming(200000)
	if err != nil {
		return err
	}
	cfg := sbist.NewConfig(core.Coarse7,
		map[string]int64{kernel: int64(tm.RestartCycles)}, sbist.OffChipTableAccess)
	h := handler.New(table, cfg)

	// Runtime: the live lockstep system.
	dmr, err := lockstep.NewDMR(k)
	if err != nil {
		return err
	}

	// --- episode 1: transient ---
	// Candidate flops in the DPU datapath; the first one whose transient
	// actually reaches the outputs gets handled.
	fmt.Println("=== episode 1: transient flip in the data processing unit ===")
	handled := false
	for bit := 0; bit < 20 && !handled; bit += 2 {
		flop := findFlop("XMAlu", bit)
		dmr.Arm(lockstep.Injection{Flop: flop, Kind: lockstep.SoftFlip,
			Cycle: dmr.Cycle + 500})
		_, detect, ok := dmr.RunToError(4000)
		dmr.Disarm()
		if !ok {
			continue
		}
		handled = true
		fmt.Printf("  transient in %s detected at cycle %d; handler invoked:\n",
			cpu.FlopName(flop), detect)
		re, err := h.HandleLive(dmr, kernel, int(cpu.FlopUnit(flop)), false)
		if err != nil {
			return err
		}
		re.PrintTimeline(os.Stdout)
		// Prove the restart worked: the pair runs divergence-free.
		clean := 0
		for ; clean < 10000; clean++ {
			if dmr.Step() {
				return fmt.Errorf("divergence after recovery")
			}
		}
		fmt.Printf("  %d clean cycles after restart: availability preserved\n\n", clean)
	}
	if !handled {
		fmt.Println("  all sampled transients were masked; no reaction needed")
	}

	// --- episode 2: permanent fault ---
	// Pick a stuck-at whose live signature hits a trained table entry, so
	// the episode shows the predictor at its best; fall back to the last
	// detected one (default entry) otherwise.
	fmt.Println("=== episode 2: stuck-at-1 in the load/store unit ===")
	var lastRe *handler.Reaction
	for bit := 2; bit < 16; bit++ {
		flop := findFlop("LSUAddr", bit)
		trial, err := lockstep.NewDMR(k)
		if err != nil {
			return err
		}
		trial.Arm(lockstep.Injection{Flop: flop, Kind: lockstep.Stuck1, Cycle: 1500})
		dsr, detect, ok := trial.RunToError(30000)
		if !ok {
			continue
		}
		re, err := h.HandleLive(trial, kernel, int(cpu.FlopUnit(flop)), true)
		if err != nil {
			return err
		}
		if !re.KnownSet && lastRe == nil {
			lastRe = &re
			continue // prefer a trained signature
		}
		fmt.Printf("  stuck-at in %s detected at cycle %d (DSR %#x); handler invoked:\n",
			cpu.FlopName(flop), detect, dsr)
		re.PrintTimeline(os.Stdout)
		fmt.Printf("  permanent fault confirmed in %s — system held in fail-safe state\n",
			core.Coarse7.UnitName(re.FaultyUnit))
		return nil
	}
	if lastRe != nil {
		fmt.Println("  (no trained signature matched; default-entry diagnosis shown)")
		lastRe.PrintTimeline(os.Stdout)
		return nil
	}
	return fmt.Errorf("no stuck-at manifested; unexpected")
}

func findFlop(reg string, bit int) int {
	i, ok := cpu.FlopByName(reg, bit)
	if !ok {
		panic("flop not found: " + reg)
	}
	return i
}
