package inject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lockstep/internal/cpu"
	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
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
	// perKernel is cfg.perKernel(). Goldens are keyed by a kernel's
	// position in cfg.Kernels, so a kernel listed twice gets a golden per
	// block of the plan.
	perKernel int
	// workers persist across resolve calls, so a worker node running many
	// spans of one kernel keeps its replay images warm.
	workers []*worker

	// mu guards the golden cache and the per-call state below; cond
	// wakes the workers waiting for a golden or for room to build one.
	mu   sync.Mutex
	cond *sync.Cond
	// held[k] is the golden of kernel k (nil until built), present from
	// the moment a worker starts building it until it is dropped. At most
	// bound are held at once, across resolve calls.
	held  map[int]*heldGolden
	bound int
	tick  uint64 // orders golden uses, for least-recently-used eviction
	// builds and peak count the goldens built and the most held at once,
	// over the engine's life.
	builds, peak int

	// Per resolve call: left[k] is the number of the call's indices of
	// kernel k not yet handed to put (a kernel with work left pins its
	// golden), last is the kernel of the call's last index, stop ends every
	// worker's loop, and err is why: a golden build failure, an oracle
	// mismatch or, failing both, ErrCanceled.
	left []int
	last int
	stop atomic.Bool
	err  error
}

// heldGolden is one slot of the golden cache.
type heldGolden struct {
	g    *lockstep.Golden // nil while a worker builds it
	used uint64           // engine tick of the last use
}

// newGolden builds a kernel's golden run. Tests replace it to act while a
// golden is being built.
var newGolden = lockstep.NewGolden

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
	en := &engine{
		cfg:       cfg,
		plan:      plan,
		planTime:  planTime,
		window:    window,
		tel:       newCampaignTelemetry(cfg),
		perKernel: cfg.perKernel(),
		workers:   make([]*worker, cfg.Workers),
		held:      map[int]*heldGolden{},
		// One golden per worker in use plus one built ahead of need.
		bound: min(len(cfg.Kernels), cfg.Workers+1),
		left:  make([]int, len(cfg.Kernels)),
	}
	en.cond = sync.NewCond(&en.mu)
	return en, nil
}

// resolveStats reports how one resolve call ran.
type resolveStats struct {
	SpanStats
	workers int // worker pool size used
	// Busy time summed over the workers: building goldens, deciding which
	// experiments pruning proves, and simulating the others. The three
	// overlap in wall time.
	golden, prune, simulate time.Duration
}

func (s *resolveStats) add(o resolveStats) {
	s.Pruned += o.Pruned
	s.OracleChecked += o.OracleChecked
	s.golden += o.golden
	s.prune += o.prune
	s.simulate += o.simulate
}

// maxClaim is the longest run of consecutive indices a worker claims at
// once: long enough that two workers rarely write neighbouring records
// and done bits, short enough that the last runs spread over the pool.
const maxClaim = 16

// resolve computes the outcome of every plan index in idxs (ascending and
// distinct) and hands each to put exactly once, in runs of consecutive
// idxs entries of one kernel (put must not keep the slices). RunStats
// puts each outcome into the campaign's ledger as it arrives;
// SpanRunner.Run returns them, and Coordinator.Commit puts them into its
// ledger the same way. It stops dispatching early when Config.Cancel
// fires before the last index is claimed (returning ErrCanceled), when
// the pruning oracle catches a wrong prediction (returning the mismatch)
// or when a golden fails to build; either way every index handed to put
// is final and the rest are never handed over.
//
// One pool of workers claims runs of idxs through an atomic counter and
// resolves each index in turn: it fetches the kernel's golden (see
// golden), records the outcome static fault-equivalence pruning proves
// without dispatching it, and simulates the rest. A deterministic seeded
// sample of the prunable sites is simulated anyway, as the runtime
// differential oracle: with the stuck-at skip off (the skip reasons with
// the same liveness tables, so it must not check them), and the run
// hard-fails on any prediction mismatch. A NoPrune campaign simulates
// every site with the skip off too, so comparing it to a pruned one
// involves no liveness reasoning at all. Every decision is derived only
// from the plan entry and its golden, so outcomes stay identical across
// worker counts, resumes, spans and pruning on/off.
func (en *engine) resolve(idxs []int, put func(idxs []int, outs []lockstep.Outcome)) (resolveStats, error) {
	st := resolveStats{workers: max(min(en.cfg.Workers, len(idxs)), 1)}
	if len(idxs) == 0 {
		return st, nil
	}
	clear(en.left)
	for _, idx := range idxs {
		en.left[en.kernelOf(idx)]++
	}
	en.last = en.kernelOf(idxs[len(idxs)-1])
	en.stop.Store(false)
	en.err = nil

	claim := max(min(maxClaim, len(idxs)/(4*st.workers)), 1)
	// A worker checks Cancel before each index it has claimed: ErrCanceled
	// then means that an index was left undispatched, never that a cancel
	// arrived after the last one was handed out.
	var next atomic.Int64
	per := make([]resolveStats, st.workers)
	var wg sync.WaitGroup
	for i := range per {
		if en.workers[i] == nil {
			en.workers[i] = &worker{en: en, tally: make([]int64, len(en.cfg.Kinds)*numClasses)}
		}
		w, ws := en.workers[i], &per[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !en.stop.Load() {
				lo := int(next.Add(int64(claim))) - claim
				if lo >= len(idxs) {
					return
				}
				w.resolveRun(idxs[lo:min(lo+claim, len(idxs))], put, ws)
			}
		}()
	}
	wg.Wait()
	for _, ws := range per {
		st.add(ws)
	}
	return st, en.err
}

// kernelOf returns the position of plan index idx's kernel.
func (en *engine) kernelOf(idx int) int { return idx / en.perKernel }

// fail stops the call and wakes every waiting worker. err becomes the
// call's error unless an earlier one is already set; a failure overrides
// an earlier ErrCanceled.
func (en *engine) fail(err error) {
	en.mu.Lock()
	en.failLocked(err)
	en.mu.Unlock()
}

func (en *engine) failLocked(err error) {
	if en.err == nil || en.err == ErrCanceled {
		en.err = err
	}
	en.stop.Store(true)
	en.cond.Broadcast()
}

// golden returns the golden of kernel k, or false once the call stops.
// The first worker that needs a golden builds it. A worker that would
// wait for a golden another worker is building builds the golden of the
// next kernel with work in this call instead, if the bound leaves room,
// so the pool does not sit idle at a kernel boundary.
func (en *engine) golden(k int, busy *time.Duration) (*lockstep.Golden, bool) {
	en.mu.Lock()
	defer en.mu.Unlock()
	for !en.stop.Load() {
		h := en.held[k]
		switch {
		case h != nil && h.g != nil:
			en.tick++
			h.used = en.tick
			return h.g, true
		case h == nil:
			if en.room() {
				en.build(k, busy)
				continue
			}
		default:
			if ahead := en.ahead(k); ahead >= 0 && en.room() {
				en.build(ahead, busy)
				continue
			}
		}
		en.cond.Wait()
	}
	return nil, false
}

// ahead returns the first kernel after k with work left in this call and
// no golden held, or -1.
func (en *engine) ahead(k int) int {
	for k++; k < len(en.left); k++ {
		if en.left[k] > 0 && en.held[k] == nil {
			return k
		}
	}
	return -1
}

// room reports whether one more golden may be held, dropping the least
// recently used golden no index of this call needs if the cache is full.
// Called with mu held.
func (en *engine) room() bool {
	if len(en.held) < en.bound {
		return true
	}
	victim := -1
	for k, h := range en.held {
		if h.g != nil && en.left[k] == 0 && (victim < 0 || h.used < en.held[victim].used) {
			victim = k
		}
	}
	if victim < 0 {
		return false
	}
	en.drop(victim)
	return true
}

// build records kernel k's golden run, with mu held except during the
// simulation itself, and adds its time to busy.
func (en *engine) build(k int, busy *time.Duration) {
	h := &heldGolden{}
	en.held[k] = h
	en.builds++
	en.peak = max(en.peak, len(en.held))
	en.mu.Unlock()
	start := time.Now()
	g, err := newGolden(workload.ByName(en.cfg.Kernels[k]), en.cfg.RunCycles, 1)
	*busy += time.Since(start)
	en.mu.Lock()
	if err != nil {
		delete(en.held, k)
		en.failLocked(err)
		return
	}
	h.g = g
	en.publishHeld()
	en.cond.Broadcast()
}

// drop forgets kernel k's golden. Called with mu held.
func (en *engine) drop(k int) {
	delete(en.held, k)
	en.publishHeld()
}

// publishHeld sets the inject.golden_trace_bytes gauge to the footprint
// of the goldens the engine holds. Called with mu held.
func (en *engine) publishHeld() {
	var n int64
	for _, h := range en.held {
		if h.g != nil {
			n += h.g.TraceBytes()
		}
	}
	en.tel.goldenBytes.Set(n)
}

// finished counts n of kernel k's indices as handed to put. A golden
// whose kernel has no work left is dropped, unless its kernel is the
// call's last: a worker node's next span most likely continues that
// kernel's block, and the bound evicts it when room is needed.
func (en *engine) finished(k, n int) {
	en.mu.Lock()
	en.left[k] -= n
	if en.left[k] == 0 && k != en.last && en.held[k] != nil {
		en.drop(k)
		en.cond.Broadcast()
	}
	en.mu.Unlock()
}

// resolveRun resolves one claimed run of indices until the call stops,
// handing the outcomes to put in one batch per kernel, and adds its counts
// and busy times to ws.
func (w *worker) resolveRun(run []int, put func([]int, []lockstep.Outcome), ws *resolveStats) {
	en := w.en
	for len(run) > 0 && !en.stopping() {
		k := en.kernelOf(run[0])
		n := 1
		for n < len(run) && en.kernelOf(run[n]) == k {
			n++
		}
		g, ok := en.golden(k, &ws.golden)
		if !ok {
			return
		}
		if batch := w.resolveBatch(g, run[:n], ws); len(batch) > 0 {
			en.tel.add(k, w.tally)
			put(batch, w.outs)
			en.finished(k, len(batch))
		}
		run = run[n:]
	}
}

// stopping reports whether the call stops, stopping it if Config.Cancel
// has fired. A worker asks before each index it has claimed.
func (en *engine) stopping() bool {
	if en.stop.Load() {
		return true
	}
	// A nil Cancel is never ready, so the select falls through.
	select {
	case <-en.cfg.Cancel:
		en.fail(ErrCanceled)
		return true
	default:
		return false
	}
}

// resolveBatch resolves indices of one kernel against its golden g until
// the call stops, leaving their outcomes in w.outs and their outcome
// counts in w.tally, and returns the indices it resolved.
func (w *worker) resolveBatch(g *lockstep.Golden, idxs []int, ws *resolveStats) []int {
	en := w.en
	cfg := &en.cfg
	w.outs = w.outs[:0]
	clear(w.tally)
	mark := time.Now()
	for i, idx := range idxs {
		if en.stopping() {
			idxs = idxs[:i]
			break
		}
		e := en.plan[idx]
		var expect lockstep.Outcome
		checked := false
		if !cfg.NoPrune {
			out, ok := g.PruneMode(e.injection(), cfg.Mode)
			if ok && !oracleSampled(cfg.Seed, e) {
				w.collect(idx, e, out)
				ws.Pruned++
				continue
			}
			expect, checked = out, ok
		}
		t := time.Now()
		if !cfg.NoPrune {
			ws.prune += t.Sub(mark)
		}
		out := w.run(g, e, checked || cfg.NoPrune)
		mark = time.Now()
		ws.simulate += mark.Sub(t)
		if checked {
			ws.OracleChecked++
		}
		if checked && !out.Failed && out != expect {
			en.fail(fmt.Errorf(
				"inject: pruning oracle mismatch: %s %s at flop %d (%s) cycle %d predicted %+v, simulated %+v",
				e.Kernel, e.Kind, e.Flop, cpu.FlopName(e.Flop), e.Cycle, expect, out))
		}
		w.collect(idx, e, out)
	}
	if !cfg.NoPrune {
		ws.prune += time.Since(mark)
	}
	return idxs
}

// collect appends idx's outcome to the worker's batch and tallies it.
func (w *worker) collect(idx int, e Experiment, out lockstep.Outcome) {
	w.outs = append(w.outs, out)
	w.en.tel.tally(w.tally, idx, e.Cycle, out)
}

func (e Experiment) injection() lockstep.Injection {
	return lockstep.Injection{Flop: e.Flop, Kind: e.Kind, Cycle: e.Cycle}
}

// recordFor renders one experiment's outcome as its dataset row. It is
// the only code that does: the ledger of RunStats and of the Coordinator
// renders every row through it, so neither pruning nor distribution can
// skew a column.
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
	// The batch being resolved: its outcomes, and their counts for the
	// campaign telemetry.
	outs  []lockstep.Outcome
	tally []int64
}

// retries is how many times a panicking experiment is re-attempted
// before it is recorded as Failed.
const retries = 1

// run executes one experiment against g, with the stuck-at skip off when
// noSkip is set, and never panics: a panicking experiment is re-attempted
// up to retries times on a fresh replay scratch (the old one may be
// mid-experiment) and then recorded as Failed, so a poisoned experiment
// costs one dataset row, not the campaign.
func (w *worker) run(g *lockstep.Golden, e Experiment, noSkip bool) lockstep.Outcome {
	for attempt := 0; ; attempt++ {
		if w.rep == nil {
			w.rep = lockstep.NewReplayer()
		}
		out, panicked := w.once(e, g, noSkip)
		if !panicked {
			return out
		}
		w.rep = nil
		if attempt >= retries {
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
	if noSkip {
		out = w.rep.InjectModeNoSkip(g, e.injection(), cfg.Mode, w.en.window)
	} else {
		out = w.rep.InjectMode(g, e.injection(), cfg.Mode, w.en.window)
	}
	if cfg.testHook != nil {
		cfg.testHook(e, &out)
	}
	return out, false
}
