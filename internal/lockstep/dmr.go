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
// campaign-oriented Replayer.InjectMode harness, for embedding in
// applications (see examples/) and for driving the error-handling flow
// end to end:
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

// step advances both CPUs one cycle and applies any armed fault.
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
				dsr |= diverge(&d.Main.State, &d.Red.State)
			}
			d.Chk.DSR = dsr
			return dsr, detectCycle, true
		}
	}
	return 0, 0, false
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
