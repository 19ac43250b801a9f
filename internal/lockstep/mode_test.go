package lockstep

import (
	"fmt"
	"math/rand"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/workload"
)

func TestParseModeRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
	}{
		{"", Mode{}},
		{"dcls", Mode{}},
		{"tmr", Mode{Kind: ModeTMR}},
		{"slip:0", Mode{Kind: ModeSlip, Slip: 0}},
		{"slip:3", Mode{Kind: ModeSlip, Slip: 3}},
		{"slip:-3", Mode{Kind: ModeSlip, Slip: -3}},
		{"slip:4096", Mode{Kind: ModeSlip, Slip: 4096}},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseMode(%q) = %+v, want %+v", c.in, got, c.want)
		}
		rt, err := ParseMode(got.String())
		if err != nil || rt != got {
			t.Fatalf("round trip of %q via %q: %+v, %v", c.in, got.String(), rt, err)
		}
	}
	for _, bad := range []string{"slip:", "slip:+3", "slip:007", "slip:0x3", "slip:3 ", "SLIP:3", "dmr", "tmr ", "slip"} {
		if m, err := ParseMode(bad); err == nil {
			t.Fatalf("ParseMode(%q) accepted as %+v", bad, m)
		}
	}
}

func TestModeStringCanonical(t *testing.T) {
	if s := (Mode{}).String(); s != "dcls" {
		t.Fatalf("zero Mode renders %q", s)
	}
	if s := (Mode{Kind: ModeSlip, Slip: 7}).String(); s != "slip:7" {
		t.Fatalf("slip mode renders %q", s)
	}
	if s := (Mode{Kind: ModeTMR}).String(); s != "tmr" {
		t.Fatalf("tmr mode renders %q", s)
	}
}

// modeTestGolden builds one small shared Golden for the cross-mode
// equivalence tests.
func modeTestGolden(t *testing.T, kernel string, cycles int) *Golden {
	t.Helper()
	g, err := NewGolden(workload.ByName(kernel), cycles, cycles/8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// modeSample enumerates a deterministic spread of injection sites.
func modeSample(g *Golden, stride, perKind int, seed int64) []Injection {
	rng := rand.New(rand.NewSource(seed))
	var out []Injection
	for flop := 0; flop < cpu.NumFlops(); flop += stride {
		for kind := FaultKind(0); kind < NumFaultKinds; kind++ {
			for i := 0; i < perKind; i++ {
				out = append(out, Injection{Flop: flop, Kind: kind, Cycle: rng.Intn(g.TotalCycles)})
			}
		}
	}
	return out
}

// TestSlipZeroEquivalence: slip:0 must equal dcls experiment-for-
// experiment on both the fast path and the oracle — acceptance (b) of the
// mode-determinism gate.
func TestSlipZeroEquivalence(t *testing.T) {
	g := modeTestGolden(t, "ttsprk", 2000)
	slip0 := Mode{Kind: ModeSlip, Slip: 0}
	r := NewReplayer()
	for _, inj := range modeSample(g, 29, 1, 11) {
		dcls := r.InjectMode(g, inj, Mode{}, StopLatency)
		s0 := r.InjectMode(g, inj, slip0, StopLatency)
		if dcls != s0 {
			t.Fatalf("%+v: slip:0 %+v != dcls %+v", inj, s0, dcls)
		}
		if lg := g.InjectLegacyMode(inj, slip0, StopLatency); lg != dcls {
			t.Fatalf("%+v: legacy slip:0 %+v != dcls %+v", inj, lg, dcls)
		}
	}
}

// TestSlipMatchesLegacyOracle: the slip fast path (horizon-truncated
// replay) must match the dual-CPU full simulation for every sampled site,
// and detection latencies must shift by exactly the stagger.
func TestSlipMatchesLegacyOracle(t *testing.T) {
	g := modeTestGolden(t, "rspeed", 2000)
	r := NewReplayer()
	for _, slip := range []int{1, 7, 64} {
		mode := Mode{Kind: ModeSlip, Slip: slip}
		dclsDetect := 0
		shifted := 0
		for _, inj := range modeSample(g, 43, 1, int64(100+slip)) {
			fast := r.InjectMode(g, inj, mode, StopLatency)
			oracle := g.InjectLegacyMode(inj, mode, StopLatency)
			if fast != oracle {
				t.Fatalf("slip:%d %+v: fast %+v != oracle %+v", slip, inj, fast, oracle)
			}
			if dcls := r.InjectMode(g, inj, Mode{}, StopLatency); dcls.Detected {
				dclsDetect++
				if fast.Detected && fast.DetectCycle == dcls.DetectCycle+slip {
					shifted++
				}
			}
		}
		if dclsDetect == 0 {
			t.Fatalf("slip:%d: sample produced no detections", slip)
		}
		if shifted == 0 {
			t.Fatalf("slip:%d: no detection latency observed shifted by the stagger", slip)
		}
	}
}

// TestTMRMatchesLegacyOracle: the TMR fast path (replay detection + live
// forward-recovery recheck) must match the triple-CPU voted oracle for
// every sampled site, and the sample must exercise both recovery results.
func TestTMRMatchesLegacyOracle(t *testing.T) {
	g := modeTestGolden(t, "ttsprk", 2000)
	mode := Mode{Kind: ModeTMR}
	r := NewReplayer()
	var detected, recovered, stuck int
	for _, inj := range modeSample(g, 17, 1, 7) {
		fast := r.InjectMode(g, inj, mode, StopLatency)
		oracle := g.InjectLegacyMode(inj, mode, StopLatency)
		if fast != oracle {
			t.Fatalf("tmr %+v: fast %+v != oracle %+v", inj, fast, oracle)
		}
		if fast.Detected {
			detected++
			if fast.Converged {
				recovered++
			} else {
				stuck++
			}
		}
	}
	if detected == 0 || recovered == 0 || stuck == 0 {
		t.Fatalf("tmr sample not exercising recovery both ways: detected=%d recovered=%d failed=%d",
			detected, recovered, stuck)
	}
}

// TestTMRDetectionEqualsDCLS pins the voter argument the fast path relies
// on: with two golden CPUs in the triple, the voted detection (cycle and
// DSR) is exactly the DCLS checker's.
func TestTMRDetectionEqualsDCLS(t *testing.T) {
	g := modeTestGolden(t, "rspeed", 2000)
	r := NewReplayer()
	for _, inj := range modeSample(g, 61, 1, 3) {
		dcls := r.InjectMode(g, inj, Mode{}, StopLatency)
		tmr := r.InjectMode(g, inj, Mode{Kind: ModeTMR}, StopLatency)
		if dcls.Detected != tmr.Detected || dcls.DetectCycle != tmr.DetectCycle || dcls.DSR != tmr.DSR {
			t.Fatalf("%+v: tmr detection %+v diverges from dcls %+v", inj, tmr, dcls)
		}
	}
}

// TestModePruneSoundness re-simulates every mode-pruned site through the
// full-simulation oracle for slip and TMR modes — acceptance (c).
func TestModePruneSoundness(t *testing.T) {
	g := modeTestGolden(t, "ttsprk", 1500)
	modes := []Mode{
		{Kind: ModeSlip, Slip: 5},
		{Kind: ModeSlip, Slip: 100},
		{Kind: ModeTMR},
	}
	for _, mode := range modes {
		rng := rand.New(rand.NewSource(99))
		pruned, checked := 0, 0
		for flop := 0; flop < cpu.NumFlops(); flop++ {
			for kind := FaultKind(0); kind < NumFaultKinds; kind++ {
				inj := Injection{Flop: flop, Kind: kind, Cycle: rng.Intn(g.TotalCycles)}
				want, ok := g.PruneMode(inj, mode)
				if !ok {
					continue
				}
				pruned++
				// >= 1% seeded sample, plus every horizon-edge site.
				if rng.Intn(64) != 0 && inj.Cycle < mode.Horizon(g.TotalCycles)-1 {
					continue
				}
				checked++
				got := g.InjectLegacyMode(inj, mode, StopLatency)
				if got != want {
					t.Fatalf("%s: pruned %+v predicted %+v, oracle says %+v", mode, inj, want, got)
				}
			}
		}
		if pruned == 0 || checked < pruned/100 {
			t.Fatalf("%s: prune sample too thin: %d pruned, %d checked", mode, pruned, checked)
		}
	}
}

func FuzzModeParse(f *testing.F) {
	for _, s := range []string{"", "dcls", "tmr", "slip:0", "slip:12", "slip:-3",
		"slip:+1", "slip:007", "slip:", "slip:9999999999999999999", "dmr", "tmr\n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMode(s)
		if err != nil {
			if m != (Mode{}) {
				t.Fatalf("non-zero Mode %+v alongside error", m)
			}
			return
		}
		// The codec is bijective on accepted inputs up to the two dcls
		// spellings: render and re-parse must be a fixpoint.
		s2 := m.String()
		m2, err := ParseMode(s2)
		if err != nil {
			t.Fatalf("render %q of accepted %q does not re-parse: %v", s2, s, err)
		}
		if m2 != m {
			t.Fatalf("round trip changed mode: %+v -> %q -> %+v", m, s2, m2)
		}
		if s != "" && s != s2 {
			t.Fatalf("accepted spelling %q is not canonical (%q)", s, s2)
		}
	})
}

func ExampleParseMode() {
	for _, s := range []string{"dcls", "slip:16", "tmr"} {
		m, _ := ParseMode(s)
		fmt.Println(m, m.Horizon(12000), m.DetectShift())
	}
	// Output:
	// dcls 12000 0
	// slip:16 11984 16
	// tmr 12000 0
}
