package handler

import (
	"bytes"
	"strings"
	"testing"

	"lockstep/internal/core"
	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/sbist"
	"lockstep/internal/units"
	"lockstep/internal/workload"
)

// trainedTable builds a table with a hard LSU set (1<<3), a soft PFU set
// (1<<20) and per-unit hard sets.
func trainedTable() *core.Table {
	d := &dataset.Dataset{}
	fines := []units.Fine{units.FinePFU, units.FineIMC, units.FineLSU,
		units.FineDMC, units.FineBIU, units.FineSCU, units.FineDPUALU}
	for u, f := range fines {
		for i := 0; i < 6; i++ {
			d.Records = append(d.Records, dataset.Record{
				Kernel: "k", Detected: true, DSR: 1 << uint(u+1),
				Unit: f.Coarse(), Fine: f, Kind: lockstep.Stuck1,
				InjectCycle: 1, DetectCycle: 2,
			})
		}
	}
	for i := 0; i < 6; i++ {
		d.Records = append(d.Records, dataset.Record{
			Kernel: "k", Detected: true, DSR: 1 << 20,
			Unit: units.PFU, Fine: units.FinePFU, Kind: lockstep.SoftFlip,
			InjectCycle: 1, DetectCycle: 2,
		})
	}
	return core.Train(d, core.Coarse7, 0)
}

func testHandler() *Handler {
	cfg := sbist.NewConfig(core.Coarse7, map[string]int64{"k": 5000}, sbist.OffChipTableAccess)
	return New(trainedTable(), cfg)
}

func TestHandleHardErrorFlow(t *testing.T) {
	h := testHandler()
	r := dataset.Record{
		Kernel: "k", Detected: true, DSR: 1 << 3,
		Unit: units.LSU, Fine: units.FineLSU, Kind: lockstep.Stuck0,
	}
	re := h.handleRecord(r)
	if !re.FoundHard || re.FaultyUnit != int(units.LSU) {
		t.Fatalf("hard fault not located: %+v", re)
	}
	if re.Restarted {
		t.Fatal("permanent fault must not restart")
	}
	if want := h.Cfg.TableAccess + h.Cfg.STL[units.LSU]; re.LERT != want {
		t.Fatalf("LERT %d, want %d", re.LERT, want)
	}
	// The timeline ends in fail-safe.
	last := re.Timeline[len(re.Timeline)-1]
	if last.Phase != PhaseSafe {
		t.Fatalf("timeline ends in %q", last.Phase)
	}
	if !re.KnownSet || !re.PredHard {
		t.Fatalf("prediction fields wrong: %+v", re)
	}
}

func TestHandlePredictedSoftSkipsSTLs(t *testing.T) {
	h := testHandler()
	r := dataset.Record{
		Kernel: "k", Detected: true, DSR: 1 << 20,
		Unit: units.PFU, Fine: units.FinePFU, Kind: lockstep.SoftFlip,
	}
	re := h.handleRecord(r)
	if !re.Restarted || re.FoundHard {
		t.Fatalf("soft flow wrong: %+v", re)
	}
	for _, e := range re.Timeline {
		if e.Phase == PhaseSTL {
			t.Fatal("predicted-soft reaction ran an STL")
		}
	}
	if want := h.Cfg.TableAccess + 5000; re.LERT != want {
		t.Fatalf("LERT %d, want %d", re.LERT, want)
	}
}

func TestHandleSoftMispredictedAsHard(t *testing.T) {
	h := testHandler()
	// A soft error with a hard-looking signature: STLs all pass, then
	// restart.
	r := dataset.Record{
		Kernel: "k", Detected: true, DSR: 1 << 2, // IMC hard set
		Unit: units.IMC, Fine: units.FineIMC, Kind: lockstep.SoftFlip,
	}
	re := h.handleRecord(r)
	if !re.Restarted || re.FoundHard {
		t.Fatalf("mispredicted soft flow wrong: %+v", re)
	}
	stls := 0
	for _, e := range re.Timeline {
		if e.Phase == PhaseSTL {
			stls++
		}
	}
	if stls != 7 {
		t.Fatalf("ran %d STLs, want all 7 before concluding soft", stls)
	}
}

func TestHandleUnknownSetDefaultsToHard(t *testing.T) {
	h := testHandler()
	r := dataset.Record{
		Kernel: "k", Detected: true, DSR: 0xDEADBEEF,
		Unit: units.DMC, Fine: units.FineDMC, Kind: lockstep.Stuck1,
	}
	re := h.handleRecord(r)
	if re.KnownSet {
		t.Fatal("unknown set flagged as known")
	}
	if !re.PredHard {
		t.Fatal("unknown sets must be treated as hard (Section III-C)")
	}
	if !re.FoundHard || re.FaultyUnit != int(units.DMC) {
		t.Fatalf("default-order diagnosis failed: %+v", re)
	}
}

// TestHandleLiveEndToEnd runs the complete loop on a live DMR: inject,
// detect, handle, restart, verify lockstep resumes.
func TestHandleLiveEndToEnd(t *testing.T) {
	d, err := lockstep.NewDMR(workload.ByName("rspeed"))
	if err != nil {
		t.Fatal(err)
	}
	// Train a small real predictor on a quick campaign of this kernel so
	// live DSRs have a chance of hitting trained entries.
	h := testHandler()

	// A transient in the decode immediate field.
	d.Arm(lockstep.Injection{Flop: 300, Kind: lockstep.SoftFlip, Cycle: 900})
	dsr, _, ok := d.RunToError(6000)
	if !ok {
		t.Skip("transient masked on this flop; acceptable")
	}
	re, err := h.HandleLive(d, "rspeed", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if re.DSR != dsr {
		t.Fatal("handler did not read the checker's DSR")
	}
	if re.FoundHard {
		t.Fatal("no hard fault exists")
	}
	if !re.Restarted {
		t.Fatal("soft reaction must end in restart")
	}
	d.Disarm()
	// After the handler restarted the pair, lockstep must hold.
	for i := 0; i < 4000; i++ {
		if d.Step() {
			t.Fatalf("divergence after handled restart at +%d", i)
		}
	}
}

func TestPrintTimeline(t *testing.T) {
	h := testHandler()
	re := h.handleRecord(dataset.Record{
		Kernel: "k", Detected: true, DSR: 1 << 3,
		Unit: units.LSU, Fine: units.FineLSU, Kind: lockstep.Stuck1,
	})
	var buf bytes.Buffer
	re.PrintTimeline(&buf)
	out := buf.String()
	for _, want := range []string{PhaseDetect, PhaseTableRead, "FAILED", "LERT:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}
