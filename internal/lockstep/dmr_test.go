package lockstep

import (
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/workload"
)

func newDMR(t *testing.T, kernel string) *DMR {
	t.Helper()
	d, err := NewDMR(workload.ByName(kernel))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDMRFaultFreeLockstep(t *testing.T) {
	d := newDMR(t, "a2time")
	for i := 0; i < 5000; i++ {
		if d.Step() {
			t.Fatalf("spurious error at cycle %d: DSR %#x", d.Cycle, d.Chk.DSR)
		}
	}
}

func TestDMRStuckAtDetectedWithWindowedDSR(t *testing.T) {
	d := newDMR(t, "ttsprk")
	d.Arm(Injection{Flop: 10, Kind: Stuck1, Cycle: 1000}) // PC bit
	dsr, cycle, ok := d.RunToError(20000)
	if !ok {
		t.Fatal("stuck-at on a PC bit must manifest")
	}
	if dsr == 0 || cycle < 1000 {
		t.Fatalf("dsr=%#x cycle=%d", dsr, cycle)
	}
	// The windowed DSR must contain at least the first-cycle map.
	if d.Chk.DSR != dsr {
		t.Fatal("checker DSR not updated with window accumulation")
	}
	if !d.Chk.Error {
		t.Fatal("checker error flag not sticky")
	}
}

func TestDMRRestartRecovers(t *testing.T) {
	d := newDMR(t, "rspeed")
	// Soft fault; run to the error (or masked — then nothing to recover).
	d.Arm(Injection{Flop: 200, Kind: SoftFlip, Cycle: 500})
	_, _, detected := d.RunToError(4000)
	d.Disarm()
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	if d.Chk.Error {
		t.Fatal("checker not cleared by restart")
	}
	// After the restart the pair must run divergence-free again.
	for i := 0; i < 5000; i++ {
		if d.Step() {
			t.Fatalf("divergence after restart (original fault detected=%v)", detected)
		}
	}
	// The workload makes progress after the restart.
	if d.Sys.Ext().Actuator[workload.DoneSlot] == 0 {
		t.Fatal("no heartbeat after restart")
	}
}

func TestDMRRedundantCannotCorruptMemory(t *testing.T) {
	d := newDMR(t, "puwmod")
	// A violent stuck-at in the redundant CPU's LSU address path.
	flop := -1
	for i := 0; i < cpu.NumFlops(); i++ {
		f := cpu.FlopAt(i)
		if cpu.Registry()[f.Reg].Name == "LSUAddr" && f.Bit == 17 {
			flop = i
			break
		}
	}
	if flop < 0 {
		t.Fatal("LSUAddr flop not found")
	}
	d.Arm(Injection{Flop: flop, Kind: Stuck1, Cycle: 800})
	d.RunToError(20000)

	// A clean reference run of the same kernel must agree with the DMR's
	// main-CPU memory image: the faulty redundant CPU never wrote.
	ref, err := NewDMR(workload.ByName("puwmod"))
	if err != nil {
		t.Fatal(err)
	}
	for ref.Cycle < d.Cycle {
		ref.Step()
	}
	a := d.Sys.Snapshot(0, 64*1024)
	b := ref.Sys.Snapshot(0, 64*1024)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("memory corrupted at word %d: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestDMRSoftTransientRecoversFlop(t *testing.T) {
	d := newDMR(t, "bitmnp")
	// Flip a register-file bit in a likely-dead register window; whether
	// or not it is detected, after two cycles the redundant flop must
	// match the main CPU's again (the transient's effect on the flop
	// disappears).
	flop := -1
	for i := 0; i < cpu.NumFlops(); i++ {
		f := cpu.FlopAt(i)
		if cpu.Registry()[f.Reg].Name == "R14" && f.Bit == 9 {
			flop = i
			break
		}
	}
	d.Arm(Injection{Flop: flop, Kind: SoftFlip, Cycle: 1000})
	for d.Cycle < 1003 {
		d.Step()
	}
	if cpu.GetBit(&d.Red.State, flop) != cpu.GetBit(&d.Main.State, flop) {
		t.Fatal("transient did not clear from the flop")
	}
}

// TestDMRAgreesWithInjectHarness: the live DMR system and the campaign
// Inject harness are two implementations of the same semantics; for the
// same fault they must detect at the same cycle with the same accumulated
// DSR.
func TestDMRAgreesWithInjectHarness(t *testing.T) {
	rep := NewReplayer()
	k := workload.ByName("a2time")
	g, err := NewGolden(k, 8000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for flop := 0; flop < cpu.NumFlops() && checked < 40; flop += 97 {
		for _, kind := range []FaultKind{SoftFlip, Stuck0, Stuck1} {
			inj := Injection{Flop: flop, Kind: kind, Cycle: 2000}
			out := rep.InjectMode(g, inj, Mode{}, StopLatency)

			d, err := NewDMR(k)
			if err != nil {
				t.Fatal(err)
			}
			d.Arm(inj)
			dsr, detect, ok := d.RunToError(8000)

			if out.Detected != ok {
				t.Fatalf("flop %d %v: inject detected=%v, DMR detected=%v",
					flop, kind, out.Detected, ok)
			}
			if !ok {
				continue
			}
			if detect != out.DetectCycle {
				t.Fatalf("flop %d %v: detect cycle %d vs %d", flop, kind, detect, out.DetectCycle)
			}
			if dsr != out.DSR {
				t.Fatalf("flop %d %v: DSR %#x vs %#x", flop, kind, dsr, out.DSR)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d detected faults compared; widen the sweep", checked)
	}
}

// TestDMRAgreesOnPortFlopTransients targets the corner where a transient
// in an output-port register is detected on its injection cycle: the DSR
// accumulated over the stop window must still match the Inject harness
// (the transient's mid-window recovery is part of the semantics).
func TestDMRAgreesOnPortFlopTransients(t *testing.T) {
	rep := NewReplayer()
	k := workload.ByName("ttsprk")
	g, err := NewGolden(k, 6000, 750)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := 0; i < cpu.NumFlops() && checked < 25; i++ {
		name := cpu.Registry()[cpu.FlopAt(i).Reg].Name
		if name != "MWVal" && name != "DAddr" && name != "IReqAddr" && name != "MWPC" {
			continue
		}
		inj := Injection{Flop: i, Kind: SoftFlip, Cycle: 2500}
		out := rep.InjectMode(g, inj, Mode{}, StopLatency)
		d, err := NewDMR(k)
		if err != nil {
			t.Fatal(err)
		}
		d.Arm(inj)
		dsr, detect, ok := d.RunToError(6000)
		if out.Detected != ok {
			t.Fatalf("flop %s[%d]: detection mismatch", name, cpu.FlopAt(i).Bit)
		}
		if !ok {
			continue
		}
		if detect != out.DetectCycle || dsr != out.DSR {
			t.Fatalf("flop %s[%d]: (%d, %#x) vs (%d, %#x)",
				name, cpu.FlopAt(i).Bit, detect, dsr, out.DetectCycle, out.DSR)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no port-flop transient detected; widen the selection")
	}
}
