package lockstep

import (
	"math/rand"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/workload"
)

// TestPruneSoundness is the differential-oracle proof behind static
// fault-equivalence pruning (`make prune-soundness`): for every stock
// bench kernel and every fault kind it enumerates a flop-strided grid of
// injection sites, collects each site the static analysis claims to
// prune together with its predicted Outcome, and re-simulates a seeded
// deterministic sample (>=1% per (kernel, kind), never fewer than 64
// sites) through the full Replayer path with the stuck-at skip off — the
// skip reasons with the same liveness tables, so re-simulating with it on
// would let one liveness bug make both sides agree. Any mismatch names the
// exact (flop, cycle, kind) so the unsound stream condition can be found.
//
// inject.Run layers a second, always-on runtime sample of the same
// contract over every real campaign; this test is the dense version that
// runs in CI against all three kinds and the stuck-at value-stability
// logic specifically.
func TestPruneSoundness(t *testing.T) {
	const (
		cycles    = 1200
		snapEvery = 300
		flopStep  = 9 // coprime with every registry field width in use
	)
	rep := NewReplayer()
	for _, kn := range []string{"ttsprk", "rspeed", "puwmod"} {
		g, err := NewGolden(workload.ByName(kn), cycles, snapEvery)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []FaultKind{SoftFlip, Stuck0, Stuck1} {
			var sites []Injection
			var predicted []Outcome
			total := 0
			for f := 0; f < cpu.NumFlops(); f += flopStep {
				for c := 0; c < cycles; c++ {
					total++
					inj := Injection{Flop: f, Kind: kind, Cycle: c}
					if out, ok := g.PruneMode(inj, Mode{}); ok {
						sites = append(sites, inj)
						predicted = append(predicted, out)
					}
				}
			}
			if len(sites) == 0 {
				t.Fatalf("%s/%s: static analysis pruned nothing out of %d sites", kn, kind, total)
			}
			sample := len(sites)/100 + 1
			if sample < 64 {
				sample = 64
			}
			if sample > len(sites) {
				sample = len(sites)
			}
			rng := rand.New(rand.NewSource(int64(len(kn))<<8 | int64(kind)))
			for _, i := range rng.Perm(len(sites))[:sample] {
				if got := rep.InjectModeNoSkip(g, sites[i], Mode{}, StopLatency); got != predicted[i] {
					t.Errorf("%s: pruned %s at flop %d (%s) cycle %d: predicted %+v, simulated %+v",
						kn, sites[i].Kind, sites[i].Flop, cpu.FlopName(sites[i].Flop),
						sites[i].Cycle, predicted[i], got)
				}
			}
			t.Logf("%s/%s: %d/%d sites pruned (%.1f%%), %d re-simulated",
				kn, kind, len(sites), total, 100*float64(len(sites))/float64(total), sample)
		}
	}
}

// TestPruneRejectsOutOfRange pins the claim-nothing paths: out-of-range
// cycles and a Golden without a liveness table must never prune.
func TestPruneRejectsOutOfRange(t *testing.T) {
	g, err := NewGolden(workload.ByName("puwmod"), 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range []Injection{
		{Flop: 0, Kind: SoftFlip, Cycle: -1},
		{Flop: 0, Kind: Stuck0, Cycle: 300},
		{Flop: 0, Kind: Stuck1, Cycle: 1 << 30},
	} {
		if _, ok := g.PruneMode(inj, Mode{}); ok {
			t.Errorf("pruned out-of-range injection %+v", inj)
		}
	}
	bare := &Golden{TotalCycles: 300}
	if _, ok := bare.PruneMode(Injection{Flop: 0, Kind: SoftFlip, Cycle: 10}, Mode{}); ok {
		t.Error("Golden without liveness table pruned an injection")
	}
}

// TestPruneSoftLastCycle pins the one soft-fault special case: an
// unobserved flip on the final cycle exits the injection loop before the
// first convergence check, so the simulated — and therefore the predicted
// — outcome is Masked, not Converged.
func TestPruneSoftLastCycle(t *testing.T) {
	g, err := NewGolden(workload.ByName("puwmod"), 600, 200)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer()
	found := 0
	for f := 0; f < cpu.NumFlops() && found < 8; f++ {
		inj := Injection{Flop: f, Kind: SoftFlip, Cycle: g.TotalCycles - 1}
		out, ok := g.PruneMode(inj, Mode{})
		if !ok {
			continue
		}
		found++
		if out != (Outcome{}) {
			t.Fatalf("flop %d: predicted %+v for a last-cycle soft flip, want Masked", f, out)
		}
		if got := rep.InjectModeNoSkip(g, inj, Mode{}, StopLatency); got != out {
			t.Fatalf("flop %d: last-cycle soft flip simulated %+v, predicted %+v", f, got, out)
		}
	}
	if found == 0 {
		t.Fatal("no prunable last-cycle soft site found")
	}
}

// TestStreamClassification is the completeness check on the flop ->
// observation-stream map: every register the registry exposes must be
// deliberately classified. A register is allowed on the conservative
// always-observed stream only if listed here, so adding a registry field
// without deriving (and testing) its read set fails this test instead of
// silently losing pruning coverage — and, symmetrically, a typo in
// streamForReg that drops a register to a narrower stream than intended
// shows up as an unexpected classification. The register-level escape
// rule is pinned the same way: exactly RetCnt (never escapes) and CycCnt
// (escapes through rdcyc) are sealed; every other register escapes on
// every cycle.
func TestStreamClassification(t *testing.T) {
	wantAlways := map[string]bool{
		"PC": true, "FQValid0": true, "FQValid1": true, "FQHead": true,
		"IReqValid": true, "DXValid": true, "XMValid": true,
		"MWValid": true, "MWWen": true, "DRe": true, "DWe": true,
		"ExtRe": true, "ExtWe": true, "ExtBusy": true, "ExtCnt": true,
		"CycCnt": true, "Halted": true, "ExcValid": true,
	}
	wantNever := map[string]bool{"IFData": true, "DRData": true, "ExtRData": true, "XMStore": true}
	wantEscape := map[string]int{"RetCnt": lvNever, "CycCnt": lvRdcyc}
	seenAlways := map[string]bool{}
	seenEscape := 0
	for _, r := range cpu.Registry() {
		want, sealed := wantEscape[r.Name]
		if !sealed {
			want = lvAlways
		} else {
			seenEscape++
		}
		if got := escapeForReg(r.Name); got != want {
			t.Errorf("register %s escapes on stream %d, want %d", r.Name, got, want)
		}
		switch st := streamForReg(r.Name); st {
		case lvAlways:
			if !wantAlways[r.Name] {
				t.Errorf("register %s fell through to the always-observed stream; classify its read set", r.Name)
			}
			seenAlways[r.Name] = true
		case lvNever:
			if !wantNever[r.Name] {
				t.Errorf("register %s classified never-observed; only write-only sinks may be", r.Name)
			}
		default:
			if wantAlways[r.Name] || wantNever[r.Name] {
				t.Errorf("register %s expected on the always/never stream, got stream %d", r.Name, st)
			}
			if st < 0 || st >= numStreams {
				t.Errorf("register %s mapped to out-of-range stream %d", r.Name, st)
			}
		}
	}
	if seenEscape != len(wantEscape) {
		t.Errorf("found %d of the %d sealed registers in the registry", seenEscape, len(wantEscape))
	}
	for name := range wantAlways {
		if !seenAlways[name] {
			t.Errorf("expected always-observed register %s missing from the registry", name)
		}
	}
	// Spot-check the indexed streams line up with their register names.
	if got := streamForReg("R5"); got != lvReg1+4 {
		t.Errorf("R5 mapped to stream %d, want %d", got, lvReg1+4)
	}
	if got := streamForReg("MPUBase3"); got != lvMPUBL0+3 {
		t.Errorf("MPUBase3 mapped to stream %d, want %d", got, lvMPUBL0+3)
	}
	if got := streamForReg("MPULimit7"); got != lvMPUBL0+7 {
		t.Errorf("MPULimit7 mapped to stream %d, want %d", got, lvMPUBL0+7)
	}
	if got := streamForReg("SomeFutureRegister"); got != lvAlways {
		t.Errorf("unknown register mapped to stream %d, want conservative always", got)
	}
	if numStreams > 64 {
		t.Fatalf("numStreams %d exceeds the 64-bit stream mask", numStreams)
	}
}

// TestPruneCoverageSubstantial pins the economics: on a stock kernel the
// static analysis must prune a meaningful share of the campaign grid
// (regressions that silently lose coverage — a stream condition widened
// to always-on, a lastVal bug — surface here long before a benchmark
// run).
func TestPruneCoverageSubstantial(t *testing.T) {
	g, err := NewGolden(workload.ByName("rspeed"), 1200, 300)
	if err != nil {
		t.Fatal(err)
	}
	pruned, total := 0, 0
	for f := 0; f < cpu.NumFlops(); f += 5 {
		for c := 0; c < g.TotalCycles; c += 7 {
			for _, kind := range []FaultKind{SoftFlip, Stuck0, Stuck1} {
				total++
				if _, ok := g.PruneMode(Injection{Flop: f, Kind: kind, Cycle: c}, Mode{}); ok {
					pruned++
				}
			}
		}
	}
	if frac := float64(pruned) / float64(total); frac < 0.25 {
		t.Fatalf("pruned %.1f%% of %d sites, want >=25%%", 100*frac, total)
	} else {
		t.Logf("pruned %.1f%% of %d sites", 100*frac, total)
	}
}
