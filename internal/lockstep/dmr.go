package lockstep

import (
	"lockstep/internal/cpu"
	"lockstep/internal/mem"
	"lockstep/internal/workload"
)

// DMR is a live dual-CPU lockstep processor: the main CPU drives the
// memory system, the redundant CPU is compare-only, and the checker
// compares the output ports every cycle, latching the Divergence Status
// Register on the first error. It is the runtime counterpart of the
// campaign-oriented Replayer.InjectMode harness and the machine of its
// oracle (restoreDMR), for embedding in applications (see examples/) and
// for driving the error-handling flow end to end:
//
//	dmr.Arm(...)                     // optional fault forcing
//	dsr, cycle, ok := dmr.RunToError(limit)
//	pred := frontend.LatchError(dsr) // core.Frontend + prediction table
//	... SBIST / restart ...
//	dmr.Restart()                    // soft recovery: reset & re-run
type DMR struct {
	Main  cpu.CPU
	Red   cpu.CPU
	Sys   *mem.System
	Chk   Checker
	Cycle int

	entry   uint32
	kernel  *workload.Kernel
	fault   fault
	faultOn bool
}

// NewDMR builds a dual lockstep system running the kernel.
func NewDMR(k *workload.Kernel) (*DMR, error) {
	sys, entry, err := k.NewSystem()
	if err != nil {
		return nil, err
	}
	d := &DMR{Sys: sys, entry: entry, kernel: k}
	d.Main = cpu.CPU{Bus: sys}
	d.Main.State.Reset(entry)
	d.Red = cpu.CPU{Bus: mem.Monitor{Sys: sys}}
	d.Red.State.Reset(entry)
	return d, nil
}

// restoreDMR is the machine of the oracle paths: the golden run restored
// at the end of inj's cycle, a compare-only monitor forked from its main
// CPU, and inj armed and struck on the monitor, which is bit-identical to
// main until then.
func (g *Golden) restoreDMR(inj Injection) *DMR {
	sys, main := g.restore(inj.Cycle)
	d := &DMR{Main: *main, Red: *main.Fork(mem.Monitor{Sys: sys}), Sys: sys, Cycle: inj.Cycle,
		entry: g.Entry, kernel: g.Kernel}
	d.Arm(inj)
	d.fault.edge(&d.Red.State, &d.Main.State, d.Cycle)
	return d
}

// Arm schedules fault forcing on the redundant CPU from inj.Cycle
// (absolute cycle count) onward.
func (d *DMR) Arm(inj Injection) {
	d.fault = fault{inj: inj}
	d.faultOn = true
}

// Disarm cancels fault forcing (e.g., after a repaired transient).
func (d *DMR) Disarm() {
	d.faultOn = false
}

// step advances both CPUs one cycle and applies any armed fault. Main
// steps first: the monitor reads the memory image main's step leaves.
func (d *DMR) step() {
	d.Cycle++
	d.Main.StepCycle()
	d.Red.StepCycle()
	if d.faultOn {
		d.fault.edge(&d.Red.State, &d.Main.State, d.Cycle)
	}
}

// Step advances both CPUs one cycle, applies any armed fault, and feeds
// the checker. It returns true on the cycle the checker latches an error.
func (d *DMR) Step() bool {
	d.step()
	om := d.Main.State.Outputs()
	or := d.Red.State.Outputs()
	return d.Chk.Compare(&om, &or)
}

// RunToError steps until the checker latches an error or limit cycles
// elapse. On detection it keeps stepping for the checker's StopLatency,
// OR-accumulating further diverged SCs into the returned map — exactly
// what the Divergence Status Register holds when the error handler reads
// it. Returns the accumulated DSR, the detection cycle and whether an
// error occurred.
func (d *DMR) RunToError(limit int) (dsr uint64, detectCycle int, ok bool) {
	for i := 0; i < limit; i++ {
		if d.Step() {
			detectCycle = d.Cycle
			dsr = d.Chk.DSR
			for w := 1; w < StopLatency; w++ {
				d.step()
				dsr |= d.diverge()
			}
			d.Chk.DSR = dsr
			return dsr, detectCycle, true
		}
	}
	return 0, 0, false
}

// diverge is the checker's divergence map between the two output ports;
// the replay fast path computes it with cpu.DivergeStates.
func (d *DMR) diverge() uint64 {
	om, or := d.Main.State.Outputs(), d.Red.State.Outputs()
	return cpu.Diverge(&om, &or)
}

// converged reports whether the soft fault armed on the redundant CPU has
// passed and left it bit-identical to main. Convergence is absorbing:
// equal states driven by the same bus stay equal.
func (d *DMR) converged() bool {
	return d.fault.inj.Kind == SoftFlip && !d.fault.hot && d.Red.State == d.Main.State
}

// Restart performs the soft-error recovery of Section II: both CPUs are
// reset to the identical architectural reset state, memory is reloaded,
// the checker is cleared, and the real-time task starts over. The
// workload's measured restart latency is the reaction-time cost of this
// operation.
func (d *DMR) Restart() error {
	d.Sys.Reset()
	prog, err := d.kernel.Program()
	if err != nil {
		return err
	}
	if err := d.Sys.LoadProgram(prog); err != nil {
		return err
	}
	d.Main.State.Reset(d.entry)
	d.Red.State.Reset(d.entry)
	d.Chk.Reset()
	d.fault.hot = false
	return nil
}
