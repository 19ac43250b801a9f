// Triple-core lockstep (TMR) with forward recovery.
//
// Section II of the paper: in a multiple-modular-redundancy configuration
// the majority voter identifies the erring CPU. A transient error can be
// healed by forward recovery — save the majority's architectural state,
// reset all cores, resume — bringing the erring CPU back into lockstep
// (as in the TCLS Cortex-R5 system the authors cite). A permanent fault
// shows up again right after recovery, which is itself a diagnosis signal.
//
// This example demonstrates both: a transient fault that is recovered and
// never returns, and a stuck-at fault that keeps re-flagging the same CPU
// until the controller declares it failed.
//
// Run with: go run ./examples/tmr-recovery
package main

import (
	"fmt"
	"log"

	"lockstep/internal/cpu"
	"lockstep/internal/lockstep"
	"lockstep/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== TMR lockstep: canrdr on three SR5 cores ===")

	// --- episode 1: transient fault, forward recovery heals it ---
	fmt.Println("\n-- episode 1: transient (soft) fault in CPU 1 --")
	tmr, err := workloadTMR()
	if err != nil {
		return err
	}
	warmup(tmr, 2000)
	tmr.Arm(1, lockstep.Injection{Flop: flopOf("DXImm", 7), Kind: lockstep.SoftFlip,
		Cycle: tmr.Cycle + 1})
	v, cycles := runUntilDiverged(tmr, 20000)
	if v == nil {
		fmt.Println("  fault was architecturally masked — no recovery needed")
	} else {
		fmt.Printf("  voter flagged CPU %d after %d cycles (diverged SCs:%s)\n",
			v.Erring, cycles, scNames(v.DSR))
		pc := tmr.ForwardRecover(0)
		fmt.Printf("  forward recovery: majority state saved, all cores resume at pc=0x%x\n", pc)
		if v2, _ := runUntilDiverged(tmr, 20000); v2 != nil {
			return fmt.Errorf("unexpected divergence after soft-error recovery")
		}
		fmt.Println("  20000 cycles clean after recovery: error was transient, availability preserved")
	}

	// --- episode 2: permanent fault keeps coming back ---
	fmt.Println("\n-- episode 2: stuck-at fault in CPU 2 --")
	tmr, err = workloadTMR()
	if err != nil {
		return err
	}
	warmup(tmr, 2000)
	tmr.Arm(2, lockstep.Injection{Flop: flopOf("LSUAddr", 3), Kind: lockstep.Stuck1,
		Cycle: tmr.Cycle + 1})
	strikes := 0
	for attempt := 1; attempt <= 3; attempt++ {
		v, cycles := runUntilDiverged(tmr, 20000)
		if v == nil {
			fmt.Printf("  attempt %d: no divergence (fault dormant)\n", attempt)
			continue
		}
		strikes++
		fmt.Printf("  attempt %d: voter flagged CPU %d after %d cycles\n",
			attempt, v.Erring, cycles)
		pc := tmr.ForwardRecover(0)
		// Re-arm: a stuck-at survives the reset (it is silicon damage).
		tmr.Arm(2, lockstep.Injection{Flop: flopOf("LSUAddr", 3), Kind: lockstep.Stuck1,
			Cycle: tmr.Cycle + 1})
		fmt.Printf("    forward recovery to pc=0x%x — but the fault is in the silicon\n", pc)
	}
	if strikes >= 2 {
		fmt.Println("  repeated divergence from the same CPU: controller declares a PERMANENT")
		fmt.Println("  fault, takes CPU 2 out of the vote, and alerts the system (safe state).")
	}
	return nil
}

func workloadTMR() (*lockstep.TMR, error) {
	return lockstep.NewTMR(workload.ByName("canrdr"))
}

func warmup(t *lockstep.TMR, n int) {
	for i := 0; i < n; i++ {
		t.Step()
	}
}

func runUntilDiverged(t *lockstep.TMR, limit int) (*lockstep.VoteResult, int) {
	for i := 0; i < limit; i++ {
		v := t.Step()
		if v.Diverged {
			return &v, i
		}
	}
	return nil, limit
}

func flopOf(reg string, bit int) int {
	i, ok := cpu.FlopByName(reg, bit)
	if !ok {
		panic("flop not found: " + reg)
	}
	return i
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
