package inject

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lockstep/internal/cpu"
	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
	"lockstep/internal/workload"
)

// engine is the one campaign executor behind both RunStats and
// SpanRunner.Run. Every outcome depends only on its plan entry and the
// kernel's golden run, so a local campaign and a distributed span are the
// same computation over different sets of plan indices: the engine owns
// the normalized config, the plan, the goldens and the per-worker replay
// scratch, and resolve computes the outcomes of any index set.
type engine struct {
	cfg      Config
	plan     []Experiment
	planTime time.Duration // wall time Config.Plan took
	window   int           // checker stop window
	tel      *campaignTelemetry
	// goldens and workers persist across resolve calls, so a worker node
	// running many spans of one kernel builds its golden once and keeps
	// its replay images warm.
	goldens map[string]*lockstep.Golden
	workers []*worker
}

func newEngine(cfg Config) (*engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	start := time.Now()
	plan, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	planTime := time.Since(start)
	window := cfg.StopLatency
	if window <= 0 {
		window = lockstep.StopLatency
	}
	return &engine{
		cfg:      cfg,
		plan:     plan,
		planTime: planTime,
		window:   window,
		tel:      newCampaignTelemetry(cfg),
		goldens:  map[string]*lockstep.Golden{},
		workers:  make([]*worker, cfg.Workers),
	}, nil
}

// resolveStats reports how one resolve call ran.
type resolveStats struct {
	SpanStats
	simulated int // experiments the worker pool completed
	workers   int // worker pool size used
	// Wall time of each phase: recording the goldens the indices need,
	// the static prune pass, and the worker pool's simulation.
	golden, prune, simulate time.Duration
}

// resolve computes the outcome of every plan index in idxs (ascending and
// distinct; the slice is reused as scratch) and hands each to put exactly
// once: serially during the prune pass, then concurrently from the worker
// pool. RunStats renders each outcome into its row through recordFor as
// it arrives; SpanRunner.Run returns them, and Coordinator.Commit renders
// them the same way. It stops dispatching early when Config.Cancel fires
// before the last index is claimed (returning ErrCanceled) or when the
// pruning oracle catches a wrong prediction (returning the mismatch);
// either way every index handed to put is final and the rest are never
// handed over.
func (en *engine) resolve(idxs []int, put func(idx int, out lockstep.Outcome)) (resolveStats, error) {
	var st resolveStats
	start := time.Now()
	if err := en.buildGoldens(idxs); err != nil {
		return st, err
	}
	st.golden = time.Since(start)
	start = time.Now()

	// Static fault-equivalence pruning: record every experiment whose
	// outcome the golden run's liveness analysis proves, without
	// dispatching it. A deterministic seeded sample of the prunable sites
	// stays in the work list as the runtime differential oracle: workers
	// simulate those with the stuck-at skip off (the skip reasons with the
	// same liveness tables, so it must not check them) and the run
	// hard-fails on any prediction mismatch. A NoPrune campaign simulates
	// every site with the skip off too, so comparing it to a pruned one
	// involves no liveness reasoning at all. The pass is serial and derived
	// only from plan + goldens, so outcomes stay identical across worker
	// counts, resumes, spans and pruning on/off.
	var oracle map[int]lockstep.Outcome
	if !en.cfg.NoPrune {
		oracle = make(map[int]lockstep.Outcome)
		sim := idxs[:0]
		for _, idx := range idxs {
			e := en.plan[idx]
			out, ok := en.goldens[e.Kernel].PruneMode(e.injection(), en.cfg.Mode)
			switch {
			case !ok:
			case oracleSampled(en.cfg.Seed, e):
				oracle[idx] = out
				st.OracleChecked++
			default:
				en.tel.record(e, out)
				put(idx, out)
				st.Pruned++
				continue
			}
			sim = append(sim, idx)
		}
		idxs = sim
	}
	st.prune = time.Since(start)
	start = time.Now()

	st.workers = max(min(en.cfg.Workers, len(idxs)), 1)
	// Workers claim positions in idxs through one atomic counter, so no
	// goroutine stands between a worker and its next experiment. A worker
	// checks Cancel only after a successful claim: ErrCanceled then means
	// that an index was left undispatched, never that a cancel arrived
	// after the last one was handed out. stop ends every claim loop after
	// a cancel or the first oracle mismatch.
	var next atomic.Int64
	var stop, canceled atomic.Bool
	var abortOnce sync.Once
	var oracleErr error
	var failures, simulated atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < st.workers; i++ {
		if en.workers[i] == nil {
			en.workers[i] = &worker{en: en}
		}
		w := en.workers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				k := int(next.Add(1) - 1)
				if k >= len(idxs) {
					return
				}
				// A nil Cancel is never ready, so the select falls through.
				select {
				case <-en.cfg.Cancel:
					canceled.Store(true)
					stop.Store(true)
					return
				default:
				}
				idx := idxs[k]
				e := en.plan[idx]
				expect, checked := oracle[idx]
				out := w.run(e, checked || en.cfg.NoPrune)
				if out.Failed {
					failures.Add(1)
				}
				if checked && !out.Failed && out != expect {
					abortOnce.Do(func() {
						oracleErr = fmt.Errorf(
							"inject: pruning oracle mismatch: %s %s at flop %d (%s) cycle %d predicted %+v, simulated %+v",
							e.Kernel, e.Kind, e.Flop, cpu.FlopName(e.Flop), e.Cycle, expect, out)
						stop.Store(true)
					})
				}
				en.tel.record(e, out)
				put(idx, out)
				simulated.Add(1)
			}
		}()
	}
	wg.Wait()
	st.simulate = time.Since(start)
	st.Failures = int(failures.Load())
	st.simulated = int(simulated.Load())
	switch {
	case oracleErr != nil:
		return st, oracleErr
	case canceled.Load():
		return st, ErrCanceled
	}
	return st, nil
}

// buildGoldens records the fault-free golden run of every kernel idxs
// touches that has none yet, in parallel (each golden is an independent
// simulation; at most Workers at once), and publishes the footprint of
// all goldens held as the inject.golden_trace_bytes gauge. Goldens are
// immutable and shared read-only by all workers.
func (en *engine) buildGoldens(idxs []int) error {
	var need []string
	for _, idx := range idxs {
		if k := en.plan[idx].Kernel; en.goldens[k] == nil && !slices.Contains(need, k) {
			need = append(need, k)
		}
	}
	built := make([]*lockstep.Golden, len(need))
	errs := make([]error, len(need))
	sem := make(chan struct{}, en.cfg.Workers)
	var wg sync.WaitGroup
	for i, name := range need {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			built[i], errs[i] = lockstep.NewGolden(workload.ByName(name), en.cfg.RunCycles, 1)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, name := range need {
		en.goldens[name] = built[i]
	}
	var traceBytes int64
	for _, g := range en.goldens {
		traceBytes += g.TraceBytes()
	}
	telemetry.Default.Gauge("inject.golden_trace_bytes").Set(traceBytes)
	return nil
}

func (e Experiment) injection() lockstep.Injection {
	return lockstep.Injection{Flop: e.Flop, Kind: e.Kind, Cycle: e.Cycle}
}

// recordFor renders one experiment's outcome as its dataset row. It is
// the only code that does: RunStats and Coordinator.Commit both render
// through it, so neither pruning nor distribution can skew a column.
func recordFor(e Experiment, out lockstep.Outcome, mode lockstep.Mode) dataset.Record {
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

// oracleSampled deterministically selects ~1/64 of prunable sites for the
// runtime differential oracle. The decision hashes only the campaign seed
// and the experiment coordinates — never worker count or iteration order —
// so the same sites are re-simulated on every run and resume of a
// campaign, keeping datasets byte-identical.
func oracleSampled(seed int64, e Experiment) bool {
	h := uint64(mix(seed, e.Kernel, e.Flop, int(e.Kind)))
	h ^= uint64(e.Cycle) * 0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h&63 == 0
}

// worker runs experiments under the campaign's fault-containment policy:
// panic isolation with bounded retry. One worker is owned by at most one
// executor goroutine at a time.
type worker struct {
	en  *engine
	rep *lockstep.Replayer // replay scratch; nil until first use or after poisoning
}

// run executes one experiment, with the stuck-at skip off when noSkip is
// set, and never panics: a panicking experiment is re-attempted up to
// cfg.Retries times on a fresh replay scratch (the old one may be
// mid-experiment) and then recorded as Failed.
func (w *worker) run(e Experiment, noSkip bool) lockstep.Outcome {
	cfg := &w.en.cfg
	g := w.en.goldens[e.Kernel]
	for attempt := 0; ; attempt++ {
		if w.rep == nil && !cfg.Legacy {
			w.rep = lockstep.NewReplayer()
		}
		out, panicked := w.once(e, g, noSkip)
		if !panicked {
			return out
		}
		w.rep = nil
		if attempt >= cfg.Retries {
			return lockstep.Outcome{Failed: true}
		}
	}
}

// once is a single contained attempt.
func (w *worker) once(e Experiment, g *lockstep.Golden, noSkip bool) (out lockstep.Outcome, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	cfg := &w.en.cfg
	switch {
	case cfg.Legacy:
		out = g.InjectLegacyMode(e.injection(), cfg.Mode, w.en.window)
	case noSkip:
		out = w.rep.InjectModeNoSkip(g, e.injection(), cfg.Mode, w.en.window)
	default:
		out = w.rep.InjectMode(g, e.injection(), cfg.Mode, w.en.window)
	}
	if cfg.testHook != nil {
		cfg.testHook(e, &out)
	}
	return out, false
}
