// Command lockstep-trace runs one fault-injection experiment on the
// dual-CPU oracle the differential gates hold the replay to, and prints
// the per-cycle divergence grid of its stop window: which signal
// categories diverge on which cycles, and what the accumulated Divergence
// Status Register ends up holding. A debugging companion to
// lockstep-inject for understanding signature formation.
//
// Usage:
//
//	lockstep-trace -kernel ttsprk -reg LSUAddr -bit 9 -kind stuck1
//	               [-cycle 3000] [-window 24] [-cycles 12000]
//	lockstep-trace -kernel ttsprk -flop 851 -kind soft
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lockstep/internal/cpu"
	"lockstep/internal/lockstep"
	"lockstep/internal/workload"
)

func main() {
	var (
		kernel = flag.String("kernel", "ttsprk", "workload kernel name")
		flop   = flag.Int("flop", -1, "flat flop index to inject (alternative to -reg/-bit)")
		reg    = flag.String("reg", "", "register name to inject (see lockstep-trace -list)")
		bit    = flag.Int("bit", 0, "bit within -reg")
		kind   = flag.String("kind", "stuck1", "fault kind: soft, stuck0 or stuck1")
		cycle  = flag.Int("cycle", 3000, "absolute injection cycle")
		window = flag.Int("window", 24, "divergence cycles to record after detection")
		cycles = flag.Int("cycles", 12000, "golden run horizon")
		list   = flag.Bool("list", false, "list register names and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range cpu.Registry() {
			fmt.Printf("%-12s %-12s %2d bits\n", r.Name, r.Fine, r.Width)
		}
		return
	}
	if err := run(os.Stdout, *kernel, *flop, *reg, *bit, *kind, *cycle, *window, *cycles); err != nil {
		fmt.Fprintln(os.Stderr, "lockstep-trace:", err)
		os.Exit(1)
	}
}

// run runs the experiment and prints the divergence grid to w.
func run(w io.Writer, kernel string, flop int, reg string, bit int, kindName string, cycle, window, cycles int) error {
	k := workload.ByName(kernel)
	if k == nil {
		return fmt.Errorf("unknown kernel %q", kernel)
	}
	var kind lockstep.FaultKind
	switch kindName {
	case "soft":
		kind = lockstep.SoftFlip
	case "stuck0":
		kind = lockstep.Stuck0
	case "stuck1":
		kind = lockstep.Stuck1
	default:
		return fmt.Errorf("unknown fault kind %q (soft|stuck0|stuck1)", kindName)
	}
	if reg != "" {
		var ok bool
		if flop, ok = cpu.FlopByName(reg, bit); !ok {
			return fmt.Errorf("no flop %s[%d]; try -list", reg, bit)
		}
	}
	if flop < 0 || flop >= cpu.NumFlops() {
		return fmt.Errorf("flop index %d out of range [0, %d)", flop, cpu.NumFlops())
	}
	if cycle >= cycles {
		return fmt.Errorf("injection cycle %d beyond horizon %d", cycle, cycles)
	}

	g, err := lockstep.NewGolden(k, cycles, cycles/16)
	if err != nil {
		return err
	}
	tr := g.Trace(lockstep.Injection{Flop: flop, Kind: kind, Cycle: cycle}, window)
	tr.Print(w)
	return nil
}
