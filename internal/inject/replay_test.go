package inject

import (
	"bytes"
	"testing"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
	"lockstep/internal/workload"
)

// TestLegacyOracleDatasetIdentical is the campaign-level differential
// test: the pruned replay campaign must be byte-identical to a dataset
// rendered from the dual-CPU oracle (Golden.InjectLegacyMode) at every
// plan index, pruned sites included — every record and the CSV
// serialization. Together with TestWorkerCountInvariance this pins the
// replay path and static pruning to the oracle's semantics at any worker
// count.
func TestLegacyOracleDatasetIdentical(t *testing.T) {
	cfg := invarianceConfig()
	cfg.Kernels = []string{"ttsprk", "rspeed"}
	cfg.Workers = 4
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	b := &dataset.Dataset{}
	goldens := map[string]*lockstep.Golden{}
	for _, e := range plan {
		g := goldens[e.Kernel]
		if g == nil {
			if g, err = lockstep.NewGolden(workload.ByName(e.Kernel), cfg.RunCycles, 1); err != nil {
				t.Fatal(err)
			}
			goldens[e.Kernel] = g
		}
		out := g.InjectLegacyMode(e.injection(), cfg.Mode, lockstep.StopLatency)
		b.Records = append(b.Records, recordFor(e, out, cfg.Mode))
	}

	if a.Len() != b.Len() {
		t.Fatalf("dataset lengths differ: replay=%d oracle=%d", a.Len(), b.Len())
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between paths:\nreplay: %+v\noracle: %+v",
				i, a.Records[i], b.Records[i])
		}
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteCSV(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("CSV serializations differ between the replay campaign and the oracle")
	}
}

// replayTelemetry reads the trace footprint gauge and the replay/pruning
// counters from the default registry (counters are process-global and
// monotone, so tests measure deltas).
func replayTelemetry() (traceBytes, restores, pruned, oracle int64, haveGauge bool) {
	snap := telemetry.Default.Snapshot()
	for _, g := range snap.Gauges {
		if g.Name == "inject.golden_trace_bytes" {
			traceBytes, haveGauge = g.Value, true
		}
	}
	for _, c := range snap.Counters {
		switch c.Name {
		case "inject.replay_restores":
			restores = c.Value
		case "inject.pruned":
			pruned = c.Value
		case "inject.pruned_oracle_checked":
			oracle = c.Value
		}
	}
	return traceBytes, restores, pruned, oracle, haveGauge
}

// TestReplayTelemetry: a replay campaign publishes the footprint of the
// goldens its engine holds (after a campaign, the last kernel's), bumps
// the restore counter once per replay it runs — every simulated
// experiment but a slip site at or past the compare horizon, which ends
// before it restores anything — and accounts every statically-pruned
// site and oracle re-simulation in the inject.pruned /
// inject.pruned_oracle_checked counters: under dcls, tmr and slip, pruned
// (where the oracle simulates sampled sites past a slip horizon) and
// unpruned (where every site past it is simulated).
func TestReplayTelemetry(t *testing.T) {
	slip := lockstep.Mode{Kind: lockstep.ModeSlip, Slip: 1500}
	for _, tc := range []struct {
		name    string
		mode    lockstep.Mode
		noPrune bool
	}{
		{"dcls", lockstep.Mode{}, false},
		{"tmr", lockstep.Mode{Kind: lockstep.ModeTMR}, false},
		{"slip:1500", slip, false},
		{"slip:1500 no-prune", slip, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Mode, cfg.NoPrune = tc.mode, tc.noPrune
			_, restoresBefore, prunedBefore, oracleBefore, _ := replayTelemetry()
			ds, st, err := RunStats(cfg)
			if err != nil {
				t.Fatal(err)
			}
			traceBytes, restoresAfter, prunedAfter, oracleAfter, haveGauge := replayTelemetry()
			if !haveGauge {
				t.Fatal("inject.golden_trace_bytes gauge not published")
			}
			if traceBytes <= 0 {
				t.Fatalf("inject.golden_trace_bytes = %d, want > 0", traceBytes)
			}
			plan, err := cfg.Plan()
			if err != nil {
				t.Fatal(err)
			}
			// The simulated sites at or past the horizon: all of them
			// unpruned, the oracle's sample of them pruned.
			horizon, past := cfg.Mode.Horizon(cfg.RunCycles), 0
			for _, e := range plan {
				if e.Cycle >= horizon && (cfg.NoPrune || oracleSampled(cfg.Seed, e)) {
					past++
				}
			}
			replays := ds.Len() - st.Pruned - past
			if got := restoresAfter - restoresBefore; got != int64(replays) {
				t.Fatalf("inject.replay_restores grew by %d, want %d: %d experiments, %d pruned, %d simulated at or past the horizon",
					got, replays, ds.Len(), st.Pruned, past)
			}
			if !cfg.NoPrune && st.Pruned <= 0 {
				t.Fatalf("Stats.Pruned = %d, want > 0 on a pruned campaign", st.Pruned)
			}
			if got := prunedAfter - prunedBefore; got != int64(st.Pruned) {
				t.Fatalf("inject.pruned grew by %d, Stats.Pruned = %d", got, st.Pruned)
			}
			if got := oracleAfter - oracleBefore; got != int64(st.OracleChecked) {
				t.Fatalf("inject.pruned_oracle_checked grew by %d, Stats.OracleChecked = %d", got, st.OracleChecked)
			}
		})
	}
}
