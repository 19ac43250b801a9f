package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lockstep/internal/cpu"
	"lockstep/internal/dataset"
	"lockstep/internal/inject"
	"lockstep/internal/loadgen"
	"lockstep/internal/lockstep"
	"lockstep/internal/workload"
)

// datasetFile is the campaign stage's output and the serve stage's input.
const datasetFile = "dataset.csv"

// minCampaignRuns is the fewest measured campaign runs a stage makes,
// whatever its budget; the process's first run only warms it up.
const minCampaignRuns = 2

// outcomeCounts classifies a dataset's experiments.
type outcomeCounts struct {
	Detected, Converged, Masked, Failed int
}

func countOutcomes(recs []dataset.Record) outcomeCounts {
	var c outcomeCounts
	for _, r := range recs {
		switch {
		case r.Failed:
			c.Failed++
		case r.Detected:
			c.Detected++
		case r.Converged:
			c.Converged++
		default:
			c.Masked++
		}
	}
	return c
}

// campaignRun is one timed campaign: from the inject.RunStats call until
// its dataset CSV is written.
type campaignRun struct {
	stats    inject.Stats
	setup    time.Duration // until the first Progress callback
	returned time.Duration // until RunStats returned
	wall     time.Duration // until the CSV was written
	digest   string
	counts   outcomeCounts
}

func (r campaignRun) rate() float64 { return float64(r.stats.Executed()) / r.wall.Seconds() }

// runCampaign makes one campaign run. With stamps set, every Progress
// callback stores its time since the call there, indexed by done-1.
func runCampaign(cfg inject.Config, csvPath string, stamps []time.Duration) (campaignRun, error) {
	var r campaignRun
	start := time.Now()
	if stamps == nil {
		cfg.Progress = func(done, _ int) {
			if done == 1 {
				r.setup = time.Since(start)
			}
		}
	} else {
		cfg.Progress = func(done, _ int) { stamps[done-1] = time.Since(start) }
	}
	ds, st, err := inject.RunStats(cfg)
	r.returned = time.Since(start)
	if err != nil {
		return r, fmt.Errorf("campaign: %w", err)
	}
	if err := writeCSV(ds, csvPath); err != nil {
		return r, err
	}
	r.wall = time.Since(start)
	if stamps != nil && len(stamps) > 0 {
		r.setup = stamps[0]
	}
	r.stats, r.counts = st, countOutcomes(ds.Records)
	r.digest, err = fileDigest(csvPath)
	return r, err
}

// writeCSV writes the dataset as the campaign CLIs do.
func writeCSV(ds *dataset.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ds.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileDigest(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkCampaign compares a run with its pin and, for a checkpointing
// campaign, checks that the final checkpoint on disk covers the plan.
func checkCampaign(r campaignRun, want pin, cfg inject.Config) []string {
	var p []string
	if r.digest != want.digest {
		p = append(p, fmt.Sprintf("dataset sha256 %s, pinned %s", r.digest, want.digest))
	}
	if r.counts != want.counts {
		p = append(p, fmt.Sprintf("outcomes %+v, pinned %+v", r.counts, want.counts))
	}
	if r.stats.Failures != 0 {
		p = append(p, fmt.Sprintf("%d experiments failed", r.stats.Failures))
	}
	if cfg.CheckpointPath == "" {
		return p
	}
	if r.stats.Checkpoints < 2 {
		p = append(p, fmt.Sprintf("wrote %d checkpoints, want several", r.stats.Checkpoints))
	}
	ck, err := inject.ReadCheckpoint(cfg.CheckpointPath)
	switch {
	case err != nil:
		p = append(p, err.Error())
	case ck.Validate(cfg, r.stats.Experiments) != nil:
		p = append(p, ck.Validate(cfg, r.stats.Experiments).Error())
	case ck.DoneCount() != r.stats.Experiments:
		p = append(p, fmt.Sprintf("final checkpoint covers %d of %d experiments", ck.DoneCount(), r.stats.Experiments))
	}
	return p
}

// campaignStage measures the campaign half of a workload: the campaign,
// run repeatedly for the budget, each run checked against its pin. The
// last run's dataset stays in dir for the serve stage.
func campaignStage(w workloadSpec, seed int64, budget time.Duration, dir string, tr *tracer, want pin) (*stageReport, error) {
	rep := newReport()
	cfg := w.campaign.config(seed)
	if w.campaign.checkpointEvery > 0 {
		cfg.CheckpointPath = filepath.Join(dir, "campaign.ckpt")
		cfg.CheckpointEvery = w.campaign.checkpointEvery
	}
	untraced := budget
	if tr != nil {
		untraced /= 2
	}
	var rates, setups, raw, steals []float64
	var last campaignRun
	start := time.Now()
	for i := 0; ; i++ {
		s0 := hostSteal()
		r, err := runCampaign(cfg, filepath.Join(dir, datasetFile), nil)
		if err != nil {
			return nil, err
		}
		rep.check("campaign run", checkCampaign(r, want, cfg))
		last = r
		// The first run of a process is up to a fifth slower (page
		// faults, heap growth); it only warms the process up.
		if i > 0 {
			// A campaign keeps every CPU busy, so the hypervisor's steal
			// stretches its wall time in proportion. Taking its times net
			// of steal halves the run-to-run spread on a shared host.
			steal := min(stealShare(hostSteal()-s0, r.wall), 0.9)
			rates = append(rates, r.rate()/(1-steal))
			setups = append(setups, r.setup.Seconds()*(1-steal))
			raw = append(raw, r.rate())
			steals = append(steals, steal)
		}
		if len(rates) >= minCampaignRuns && time.Since(start)+r.wall > untraced {
			break
		}
	}
	rep.set("campaign_exp_per_s", median(rates), "1/s")
	rep.set("campaign_setup_s", median(setups), "s")
	rep.Info["campaign_exp_per_s_runs"] = rates
	rep.Info["campaign_setup_s_runs"] = setups
	rep.Info["campaign_raw_exp_per_s_runs"] = raw
	rep.Info["campaign_steal_runs"] = steals
	rep.Info["experiments"] = last.stats.Experiments
	rep.Info["pruned"] = last.stats.Pruned
	rep.Info["digest"] = last.digest
	if tr != nil {
		if err := traceCampaign(rep, cfg, tr, last, median(raw), dir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceCampaign splits RunStats into phases from outside, then drives the
// same campaign through the layers' public calls itself, with a span
// around each, and checks that it reproduces the untraced dataset. Like
// the spans, untracedRate is raw wall-clock throughput, steal included.
func traceCampaign(rep *stageReport, cfg inject.Config, tr *tracer, untraced campaignRun, untracedRate float64, dir string) error {
	n := untraced.stats.Experiments
	stamps := make([]time.Duration, n)
	r, err := runCampaign(cfg, filepath.Join(dir, "phases.csv"), stamps)
	if err != nil {
		return err
	}
	rep.checkf("phase-split run", r.digest == untraced.digest, "dataset sha256 %s, untraced %s", r.digest, untraced.digest)
	st := r.stats
	pruneEnd := stamps[0]
	if st.Pruned > 0 {
		pruneEnd = stamps[st.Pruned-1]
	}
	lastCall := stamps[n-1]
	simulate := lastCall - pruneEnd
	rep.set("inject.phase_setup_s", stamps[0].Seconds(), "s")
	rep.set("inject.phase_prune_s", (pruneEnd - stamps[0]).Seconds(), "s")
	rep.set("inject.phase_simulate_s", simulate.Seconds(), "s")
	rep.set("inject.phase_finish_s", (r.returned - lastCall).Seconds(), "s")
	rep.set("inject.pruned_ratio", float64(st.Pruned)/float64(st.Experiments), "ratio")
	rep.set("inject.oracle_checked", float64(st.OracleChecked), "count")
	rep.set("inject.failures", float64(st.Failures), "count")
	rep.set("inject.checkpoint_writes", float64(st.Checkpoints), "count")

	tc, err := tracedEngine(cfg, tr, filepath.Join(dir, "traced.csv"))
	if err != nil {
		return err
	}
	rep.checkf("trace integrity", tc.digest == untraced.digest && tc.counts == untraced.counts,
		"traced engine dataset sha256 %s outcomes %+v, untraced %s %+v", tc.digest, tc.counts, untraced.digest, untraced.counts)
	workers := float64(cfg.Workers)
	plan := tr.total("inject.plan")
	golden := tr.total("lockstep.golden")
	busy := tr.total("lockstep.replay")
	prune := tr.named("lockstep.prune")[0]
	kernels := float64(len(tc.goldens))
	rep.set("inject.plan_s", plan.Seconds(), "s")
	rep.set("inject.engine_overhead_s", simulate.Seconds()-busy.Seconds()/workers, "s")
	rep.set("inject.plan_replay_share", (plan.Seconds()+busy.Seconds()/workers)/(float64(n)/untracedRate), "ratio")
	rep.set("lockstep.golden_s", golden.Seconds(), "s")
	rep.set("lockstep.golden_ns_per_cycle", float64(golden)/(kernels*float64(cfg.RunCycles)), "ns")
	var traceBytes int64
	for _, g := range tc.goldens {
		traceBytes += g.TraceBytes()
	}
	rep.set("lockstep.trace_bytes", float64(traceBytes), "B")
	rep.set("lockstep.prune_ns", float64(prune.dur())/float64(prune.N), "ns")
	rep.set("lockstep.replay_calls", float64(len(tc.replays)), "count")
	rep.set("lockstep.replay_busy_s", busy.Seconds(), "s")
	slices.Sort(tc.replays)
	rep.set("lockstep.replay_us_p50", micros(time.Duration(loadgen.Percentile(tc.replays, 50))), "us")
	rep.set("lockstep.replay_us_p99", micros(time.Duration(loadgen.Percentile(tc.replays, 99))), "us")
	for c, name := range []string{"masked", "detected_soft", "detected_hard"} {
		mean := 0.0
		if tc.classN[c] > 0 {
			mean = micros(tc.classT[c]) / float64(tc.classN[c])
		}
		rep.set("lockstep.replay_us_"+name, mean, "us")
	}
	rep.set("lockstep.detected", float64(tc.counts.Detected), "count")
	rep.set("lockstep.converged", float64(tc.counts.Converged), "count")
	rep.set("lockstep.masked", float64(tc.counts.Masked), "count")
	csvSpan := tr.named("dataset.write_csv")[0]
	rep.set("dataset.write_csv_ms", millis(csvSpan.dur()), "ms")
	rep.set("dataset.csv_bytes", float64(tc.csvBytes), "B")
	rep.set("trace.campaign_exp_per_s_ratio", float64(n)/tc.wall.Seconds()/untracedRate, "ratio")

	stepNS, err := stepProbe(tr, tc.kernels, cfg.RunCycles)
	if err != nil {
		return err
	}
	rep.set("cpu.step_ns", stepNS, "ns")
	return checkpointProbe(rep, cfg, tr, tc.records, filepath.Join(dir, "final.ckpt"))
}

// tracedCampaign is what the traced engine produced.
type tracedCampaign struct {
	digest   string
	counts   outcomeCounts
	records  []dataset.Record
	wall     time.Duration // plan until CSV written
	csvBytes int64
	kernels  []string
	goldens  []*lockstep.Golden
	replayStats
}

// replayStats times the replays: every call in nanoseconds, and the count
// and total time per outcome class (masked, detected soft, detected hard).
type replayStats struct {
	replays []int64
	classN  [3]int
	classT  [3]time.Duration
}

// tracedEngine runs the campaign through the public calls the engine
// makes — Config.Plan, NewGolden, PruneMode, Replayer.InjectMode,
// Dataset.WriteCSV — on cfg.Workers workers, with a span around each.
// It does not re-simulate the ~1/64 pruning-oracle sample, which cannot
// change the dataset.
func tracedEngine(cfg inject.Config, tr *tracer, csvPath string) (*tracedCampaign, error) {
	tc := &tracedCampaign{}
	t0 := time.Now()
	root := tr.start("campaign", 0, 0)
	sp := tr.start("inject.plan", root.ID, 0)
	plan, err := cfg.Plan()
	tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, e := range plan {
		if !seen[e.Kernel] {
			seen[e.Kernel] = true
			tc.kernels = append(tc.kernels, e.Kernel)
		}
	}
	if tc.goldens, err = tracedGoldens(cfg, tc.kernels, tr, root.ID); err != nil {
		return nil, err
	}
	golden := map[string]*lockstep.Golden{}
	for i, k := range tc.kernels {
		golden[k] = tc.goldens[i]
	}

	records := make([]dataset.Record, len(plan))
	pending := make([]int, 0, len(plan))
	sp = tr.start("lockstep.prune", root.ID, 0)
	for i, e := range plan {
		if out, ok := golden[e.Kernel].PruneMode(injection(e), cfg.Mode); ok {
			records[i] = record(e, out, cfg.Mode)
		} else {
			pending = append(pending, i)
		}
	}
	tr.end(sp, len(plan))

	sim := tr.start("inject.simulate", root.ID, 0)
	var next atomic.Int64
	per := make([]replayStats, cfg.Workers)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(ws *replayStats) {
			defer wg.Done()
			rep := lockstep.NewReplayer()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(pending) {
					return
				}
				idx := pending[k]
				e := plan[idx]
				s := tr.start("lockstep.replay", sim.ID, int64(idx))
				out := rep.InjectMode(golden[e.Kernel], injection(e), cfg.Mode, lockstep.StopLatency)
				s = tr.end(s, 1)
				records[idx] = record(e, out, cfg.Mode)
				c := 0
				if out.Detected {
					c = 1
					if e.Kind.IsHard() {
						c = 2
					}
				}
				ws.replays = append(ws.replays, int64(s.dur()))
				ws.classN[c]++
				ws.classT[c] += s.dur()
			}
		}(&per[w])
	}
	wg.Wait()
	tr.end(sim, len(pending))
	for _, ws := range per {
		tc.replays = append(tc.replays, ws.replays...)
		for c := range ws.classN {
			tc.classN[c] += ws.classN[c]
			tc.classT[c] += ws.classT[c]
		}
	}

	sp = tr.start("dataset.write_csv", root.ID, 0)
	err = writeCSV(&dataset.Dataset{Records: records}, csvPath)
	tr.end(sp, 1)
	tc.wall = time.Since(t0)
	tr.end(root, 1)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(csvPath)
	if err != nil {
		return nil, err
	}
	tc.csvBytes = fi.Size()
	tc.records, tc.counts = records, countOutcomes(records)
	tc.digest, err = fileDigest(csvPath)
	return tc, err
}

// tracedGoldens records the golden runs on at most cfg.Workers goroutines
// at once, with the engine's snapshot cadence.
func tracedGoldens(cfg inject.Config, kernels []string, tr *tracer, parent int64) ([]*lockstep.Golden, error) {
	snapEvery := max(cfg.RunCycles/16, 1)
	gs := make([]*lockstep.Golden, len(kernels))
	errs := make([]error, len(kernels))
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	for i, name := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sp := tr.start("lockstep.golden", parent, 0)
			gs[i], errs[i] = lockstep.NewGolden(workload.ByName(name), cfg.RunCycles, snapEvery)
			tr.end(sp, 1)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return gs, nil
}

func injection(e inject.Experiment) lockstep.Injection {
	return lockstep.Injection{Flop: e.Flop, Kind: e.Kind, Cycle: e.Cycle}
}

// record is the dataset row of one experiment, as the engine writes it.
func record(e inject.Experiment, out lockstep.Outcome, mode lockstep.Mode) dataset.Record {
	return dataset.Record{
		Kernel:      e.Kernel,
		Flop:        e.Flop,
		Unit:        cpu.FlopUnit(e.Flop),
		Fine:        cpu.FlopFine(e.Flop),
		Kind:        e.Kind,
		InjectCycle: e.Cycle,
		Detected:    out.Detected,
		DetectCycle: out.DetectCycle,
		DSR:         out.DSR,
		Converged:   out.Converged,
		Failed:      out.Failed,
		Mode:        mode,
	}
}

// stepProbe steps every kernel fault-free over the horizon from reset,
// three times, and returns the median ns per cycle.
func stepProbe(tr *tracer, kernels []string, cycles int) (float64, error) {
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		var total time.Duration
		for _, name := range kernels {
			sys, entry, err := workload.ByName(name).NewSystem()
			if err != nil {
				return 0, err
			}
			c := cpu.New(sys, entry)
			sp := tr.start("cpu.step", 0, 0)
			for cyc := 0; cyc < cycles; cyc++ {
				c.StepCycle()
			}
			total += tr.end(sp, cycles).dur()
		}
		passes = append(passes, float64(total)/float64(len(kernels)*cycles))
	}
	return median(passes), nil
}

// checkpointProbe writes the campaign's final checkpoint — every plan
// index done — through inject.WriteCheckpoint three times. A campaign
// that checkpoints must have left the same bytes on disk itself.
func checkpointProbe(rep *stageReport, cfg inject.Config, tr *tracer, records []dataset.Record, path string) error {
	fp, err := cfg.Fingerprint()
	if err != nil {
		return err
	}
	ck := &inject.Checkpoint{FP: fp, Total: len(records), Done: []inject.Span{{Lo: 0, Hi: len(records)}}, Records: records}
	var writes []float64
	for i := 0; i < 3; i++ {
		sp := tr.start("inject.write_checkpoint", 0, 0)
		err := inject.WriteCheckpoint(path, ck)
		sp = tr.end(sp, 1)
		if err != nil {
			return err
		}
		writes = append(writes, millis(sp.dur()))
	}
	mine, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep.set("inject.checkpoint_write_ms", median(writes), "ms")
	rep.set("inject.checkpoint_bytes", float64(len(mine)), "B")
	if cfg.CheckpointPath != "" {
		theirs, err := os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			return err
		}
		rep.checkf("final checkpoint", bytes.Equal(mine, theirs),
			"the campaign's final checkpoint (%d bytes) differs from one written from its dataset (%d bytes)", len(theirs), len(mine))
	}
	return nil
}
