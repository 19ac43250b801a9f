package inject

import (
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/lockstep"
	"lockstep/internal/workload"
)

// referenceCampaign returns the reference DCLS campaign (ttsprk, rspeed,
// puwmod; 6,000 cycles; stride 1; seed 1), its plan and its goldens.
func referenceCampaign(t *testing.T) (Config, []Experiment, map[string]*lockstep.Golden) {
	t.Helper()
	cfg := dclsPlanShape(1)
	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	goldens := map[string]*lockstep.Golden{}
	for _, name := range cfg.Kernels {
		if goldens[name], err = lockstep.NewGolden(workload.ByName(name), cfg.RunCycles, 1); err != nil {
			t.Fatal(err)
		}
	}
	return cfg, plan, goldens
}

// TestSkipMatchesNoSkip is the gate on the replay loop's stuck-at skip
// (`make prune-soundness`): on every site of the reference DCLS campaign
// plan (ttsprk, rspeed, puwmod; 6,000 cycles; stride 1; seed 1) that
// pruning leaves to simulation, InjectMode with the skip on must return
// exactly the Outcome InjectModeNoSkip computes by simulating every cycle,
// under dcls, slip:16 and tmr. The skip jumps with the liveness tables, so
// a jump that lands one cycle late, or past the slip horizon, fails here.
// (Skipped under -race, where the full plan takes about a minute.)
func TestSkipMatchesNoSkip(t *testing.T) {
	if raceEnabled {
		t.Skip("runs without -race in make prune-soundness")
	}
	_, plan, goldens := referenceCampaign(t)
	rep := lockstep.NewReplayer()
	for _, mode := range []lockstep.Mode{{}, {Kind: lockstep.ModeSlip, Slip: 16}, {Kind: lockstep.ModeTMR}} {
		replayed, mismatches := 0, 0
		for _, e := range plan {
			g, inj := goldens[e.Kernel], e.injection()
			if _, ok := g.PruneMode(inj, mode); ok {
				continue
			}
			replayed++
			want := rep.InjectModeNoSkip(g, inj, mode, lockstep.StopLatency)
			if got := rep.InjectMode(g, inj, mode, lockstep.StopLatency); got != want {
				if mismatches++; mismatches <= 5 {
					t.Errorf("%s: %s %s at flop %d (%s) cycle %d: skip %+v, no skip %+v",
						mode, e.Kernel, e.Kind, e.Flop, cpu.FlopName(e.Flop), e.Cycle, got, want)
				}
			}
		}
		if mismatches > 0 {
			t.Errorf("%s: %d of %d replayed sites differ with the skip on", mode, mismatches, replayed)
		} else {
			t.Logf("%s: %d replayed sites agree", mode, replayed)
		}
	}
}

// TestSkipOffMatchesLegacyOnOracleSites holds the skip-off replay — the
// form the runtime pruning oracle and NoPrune campaigns use, with its
// exact re-convergence exit — to the dual-CPU oracle on every site of the
// reference DCLS campaign plan that the runtime oracle samples (prunable
// and oracleSampled at seed 1), under dcls, slip:16 and tmr.
// (Skipped under -race, like TestSkipMatchesNoSkip.)
func TestSkipOffMatchesLegacyOnOracleSites(t *testing.T) {
	if raceEnabled {
		t.Skip("runs without -race in make prune-soundness")
	}
	cfg, plan, goldens := referenceCampaign(t)
	rep := lockstep.NewReplayer()
	for _, mode := range []lockstep.Mode{{}, {Kind: lockstep.ModeSlip, Slip: 16}, {Kind: lockstep.ModeTMR}} {
		sampled := 0
		for _, e := range plan {
			g, inj := goldens[e.Kernel], e.injection()
			if _, ok := g.PruneMode(inj, mode); !ok || !oracleSampled(cfg.Seed, e) {
				continue
			}
			sampled++
			want := g.InjectLegacyMode(inj, mode, lockstep.StopLatency)
			if got := rep.InjectModeNoSkip(g, inj, mode, lockstep.StopLatency); got != want {
				t.Errorf("%s: %s %s at flop %d (%s) cycle %d: skip-off replay %+v, dual-CPU oracle %+v",
					mode, e.Kernel, e.Kind, e.Flop, cpu.FlopName(e.Flop), e.Cycle, got, want)
			}
		}
		if sampled == 0 {
			t.Fatalf("%s: no oracle-sampled site", mode)
		}
		t.Logf("%s: %d oracle-sampled sites agree", mode, sampled)
	}
}
