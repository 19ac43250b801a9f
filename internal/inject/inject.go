// Package inject drives fault-injection campaigns following the paper's
// Section IV-A methodology: every flip-flop of the CPU receives transient
// (soft), stuck-at-0 and stuck-at-1 faults at randomly chosen points in
// equally sized intervals of each benchmark's run, one single fault per
// experiment, and the lockstep checker's view of each experiment is logged.
//
// The paper injected 10 million faults over two weeks on a server cluster;
// campaign size here is a Config knob with the same structure (full flop
// coverage x 3 fault kinds x intervals x benchmarks) so the methodology is
// identical and only the sample count scales.
//
// Campaigns are executed in two phases. First the whole experiment plan is
// enumerated (see Plan): every injection's coordinates and cycle are fixed
// up front from Config.Seed alone. Then the plan is sharded across a pool
// of workers, each experiment replaying against a read-only per-kernel
// golden run that the workers build as they reach its kernel, and every
// row lands at its plan index in the campaign's ledger — so the dataset is
// bit-identical for any worker count, including a serial run. The ledger
// is the one owner of a campaign's rows, its resume, its checkpoint
// writer and its tallies, for a local run and a distributed Coordinator
// alike.
//
// Long campaigns are crash-safe: with Config.CheckpointPath set the ledger
// periodically persists an atomic, versioned checkpoint of the completed
// plan spans, and Config.Resume restores it and re-executes only the
// remaining plan indices — the final dataset is byte-identical to an
// uninterrupted run (see checkpoint.go). Workers contain faults in the
// harness itself: a panicking experiment is retried on fresh scratch and
// then recorded as a Failed row, so one poisoned experiment cannot kill a
// multi-week campaign.
package inject

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lockstep/internal/atomicfile"
	"lockstep/internal/cpu"
	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
	"lockstep/internal/workload"
)

// ConfigError reports an invalid campaign Config. Field names the
// offending Config field and Reason explains the problem, so every
// consumer — the campaign CLIs and the lockstep-serve API — can report
// the same field the same way (the CLI prints Error(), the server echoes
// Field in its structured JSON error).
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("inject: config %s: %s", e.Field, e.Reason)
}

// ErrCanceled is returned by Run/RunStats when the campaign was stopped
// via Config.Cancel before finishing. The partial results are not
// returned as a dataset; with checkpointing enabled they are persisted
// in the final checkpoint, and a Resume run completes the campaign with
// a byte-identical dataset.
var ErrCanceled = errors.New("inject: campaign canceled")

// Config sizes a campaign.
type Config struct {
	// Kernels selects benchmark kernels by name; empty means the full
	// suite.
	Kernels []string
	// RunCycles is the fault-free horizon of each kernel's golden run;
	// injections happen anywhere in it and manifestation is observed until
	// its end (the benchmark "runs to completion"). At most 1<<16.
	RunCycles int
	// Intervals divides the run into equally sized injection intervals
	// (the paper uses 64).
	Intervals int
	// InjectionsPerFlopKind is how many experiments each (flop, kind) pair
	// receives per kernel, each in a distinct randomly chosen interval.
	InjectionsPerFlopKind int
	// FlopStride samples every Nth flop (1 = every flip-flop).
	FlopStride int
	// Kinds selects fault kinds; empty means soft + stuck-at-0 + stuck-at-1.
	Kinds []lockstep.FaultKind
	// StopLatency overrides the checker stop window (cycles of DSR
	// accumulation after first divergence); 0 uses lockstep.StopLatency.
	StopLatency int
	// Seed makes the campaign reproducible.
	Seed int64
	// Mode selects the lockstep organization experiments run under: DCLS
	// (the zero value, the paper's baseline), temporal-slip ("slip:N",
	// the redundant CPU staggered N cycles behind the main) or TMR
	// (majority voter with forward recovery). The injection plan is
	// mode-independent — the same (flop, kind, cycle) schedule runs under
	// every mode — so mode is a pure campaign axis; it participates in
	// the fingerprint, the checkpoint and the dataset rows.
	Mode lockstep.Mode
	// Workers is the number of parallel experiment executors, and of the
	// goroutines that build the plan; 0 or negative means
	// runtime.NumCPU(). A campaign holds at most Workers+1 kernels'
	// golden runs at once. The resulting dataset is identical for every
	// worker count (the plan fixes each experiment's schedule and records
	// merge back in plan order).
	Workers int
	// NoPrune disables static fault-equivalence pruning, simulating every
	// experiment even when the golden run's liveness and register-escape
	// analysis proves its outcome, and turns off the replay's stuck-at
	// skip, which reasons with the same analysis. The skip-off replay keeps
	// its exact re-convergence exit, which reads only the recorded golden
	// states. The dataset is byte-identical either way — NoPrune is the
	// differential-oracle escape hatch (and the slow path), not a different
	// campaign. It participates in the resume fingerprint so a checkpoint
	// is never silently continued under the other setting.
	//
	// With pruning on, a deterministic seeded sample of the pruned sites
	// (~1/64, at least one whenever anything was pruned) is still
	// simulated, with the skip off, and compared against the static
	// prediction; a mismatch aborts the campaign with an error naming the
	// (flop, cycle), so an unsound analysis can never quietly ship a
	// dataset.
	NoPrune bool
	// Progress, if non-nil, receives (done, total) experiment counts for
	// the experiments this run executes (a resumed campaign reports the
	// remaining work, not the restored records). Calls are serialized and
	// done is strictly increasing 1..total, even when experiments complete
	// out of order across workers.
	Progress func(done, total int)

	// CheckpointPath, when non-empty, makes the campaign periodically
	// persist an atomic resumable checkpoint (completed plan spans +
	// records + config fingerprint) to this path, and write a final one on
	// completion. See checkpoint.go for the crash-safety contract.
	CheckpointPath string
	// CheckpointEvery is the number of completed experiments between
	// checkpoint writes; 0 means a default of 4096. Only meaningful with
	// CheckpointPath.
	CheckpointEvery int
	// Resume restores the checkpoint at CheckpointPath and re-executes
	// only the plan indices it does not cover. The final dataset is
	// byte-identical to an uninterrupted run at any worker count. A
	// missing, corrupt or config-mismatched checkpoint refuses with a
	// typed error instead of silently restarting.
	Resume bool

	// Cancel, when non-nil, requests a graceful early stop: once the
	// channel is closed no further experiments are dispatched, in-flight
	// experiments drain, and — with CheckpointPath set — a final
	// checkpoint covering every completed experiment is written before
	// RunStats returns ErrCanceled. A later run with Resume then finishes
	// the campaign with a dataset byte-identical to an uninterrupted run.
	// Cancellation is schedule-neutral, so it is not part of the resume
	// fingerprint.
	Cancel <-chan struct{}

	// testHook, when set, runs at the end of every simulated experiment
	// attempt and may rewrite its outcome. It exists so tests can inject
	// panics and wrong outcomes into the worker pool to exercise the
	// containment layer and the pruning oracle.
	testHook func(Experiment, *lockstep.Outcome)
}

// maxExperiments bounds a campaign's experiment count: above the paper's
// 10M injections (the full scale here is 171,990), and low enough that
// the plan and the dataset's records fit in memory.
const maxExperiments = 1 << 24

// maxRunCycles bounds RunCycles: each kernel's golden run keeps the CPU
// state of every cycle (336 bytes each, 22 MB per kernel at the bound),
// and a campaign holds up to Workers+1 goldens at once. The bound is 3.3x
// the longest horizon any caller uses (20,000 cycles at the full scale).
const maxRunCycles = 1 << 16

func (c *Config) normalize() error {
	if c.RunCycles <= 0 {
		c.RunCycles = 12000
	}
	if c.RunCycles > maxRunCycles {
		return &ConfigError{Field: "RunCycles", Reason: fmt.Sprintf(
			"%d cycles exceed the %d-cycle limit", c.RunCycles, maxRunCycles)}
	}
	if c.Intervals <= 0 {
		c.Intervals = 64
	}
	if c.InjectionsPerFlopKind <= 0 {
		c.InjectionsPerFlopKind = 1
	}
	if c.FlopStride <= 0 {
		c.FlopStride = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 4096
	}
	if c.Resume && c.CheckpointPath == "" {
		return &ConfigError{Field: "Resume", Reason: "requires CheckpointPath"}
	}
	switch c.Mode.Kind {
	case lockstep.ModeDCLS, lockstep.ModeTMR:
		if c.Mode.Slip != 0 {
			return &ConfigError{Field: "Slip", Reason: fmt.Sprintf("slip count %d requires slip mode", c.Mode.Slip)}
		}
	case lockstep.ModeSlip:
		if c.Mode.Slip < 0 {
			return &ConfigError{Field: "Slip", Reason: fmt.Sprintf("negative slip %d", c.Mode.Slip)}
		}
		if c.Mode.Slip >= c.RunCycles {
			return &ConfigError{Field: "Slip", Reason: fmt.Sprintf(
				"slip %d leaves no compare horizon within the %d-cycle run", c.Mode.Slip, c.RunCycles)}
		}
	default:
		return &ConfigError{Field: "Mode", Reason: fmt.Sprintf("unknown mode kind %d", c.Mode.Kind)}
	}
	if c.Intervals > c.RunCycles {
		return &ConfigError{Field: "Intervals", Reason: fmt.Sprintf(
			"%d intervals do not fit the %d-cycle run", c.Intervals, c.RunCycles)}
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []lockstep.FaultKind{lockstep.SoftFlip, lockstep.Stuck0, lockstep.Stuck1}
	}
	if len(c.Kernels) == 0 {
		for _, k := range workload.Kernels() {
			c.Kernels = append(c.Kernels, k.Name)
		}
	}
	for _, name := range c.Kernels {
		if workload.ByName(name) == nil {
			return &ConfigError{Field: "Kernels", Reason: fmt.Sprintf("unknown kernel %q", name)}
		}
	}
	if groups := c.groups(); c.InjectionsPerFlopKind > maxExperiments/groups {
		return &ConfigError{Field: "InjectionsPerFlopKind", Reason: fmt.Sprintf(
			"%d injections for each of %d (kernel, flop, kind) groups exceed the %d-experiment limit",
			c.InjectionsPerFlopKind, groups, maxExperiments)}
	}
	return nil
}

// groups is the number of (kernel, flop, kind) injection groups of a
// normalized config.
func (c *Config) groups() int {
	flops := (cpu.NumFlops() + c.FlopStride - 1) / c.FlopStride
	return len(c.Kernels) * flops * len(c.Kinds)
}

// perKernel is the number of plan indices of each kernel of a normalized
// config: the plan is kernel-major, so plan index idx belongs to the
// kernel at position idx/perKernel() of Kernels.
func (c *Config) perKernel() int {
	return c.groups() / len(c.Kernels) * c.InjectionsPerFlopKind
}

// Fingerprint returns the schedule fingerprint of the config: every field
// that influences which experiments run and what they record, normalized
// (defaults applied, kernel list expanded). Two configs with equal
// fingerprints produce byte-identical datasets, so the fingerprint is a
// stable identity for a campaign — lockstep-serve derives job IDs from
// it, and checkpoints embed it to refuse mismatched resumes.
func (c Config) Fingerprint() (Fingerprint, error) {
	if err := c.normalize(); err != nil {
		return Fingerprint{}, err
	}
	return c.fingerprint(), nil
}

// Total returns the number of experiments the config will run. A config
// that cannot run (e.g. an unknown kernel name) returns the error that
// Run/RunStats/Plan would return, instead of silently reporting 0.
func (c Config) Total() (int, error) {
	if err := c.normalize(); err != nil {
		return 0, err
	}
	return c.groups() * c.InjectionsPerFlopKind, nil
}

// Stats reports how a campaign ran.
type Stats struct {
	Experiments int // experiments in the dataset (restored + executed)
	Restored    int // experiments restored from a resume checkpoint
	// Pruned counts experiments whose outcome the static liveness
	// analysis proved, recorded without simulation (a subset of
	// Executed: pruning is why exp/s rises).
	Pruned int
	// OracleChecked counts pruned sites the runtime differential oracle
	// re-simulated anyway to confirm the static prediction.
	OracleChecked int
	Failures      int           // Failed rows in the dataset, restored ones included
	Checkpoints   int           // checkpoint files written
	Workers       int           // worker pool size used
	Elapsed       time.Duration // wall clock, golden runs included
	PerSec        float64       // executed experiments per wall-clock second
	// PlanTime is the wall time of building the plan, which precedes
	// everything else, so PlanTime <= Elapsed.
	PlanTime time.Duration
	// GoldenTime, PruneTime and SimulateTime are busy time summed over
	// the workers, which interleave the three: recording the golden runs,
	// deciding which experiments static pruning proves, and simulating
	// the others. Each is at most Elapsed × Workers, and they may sum to
	// more than Elapsed. Elapsed also covers restoring a resume
	// checkpoint and writing the final one. All four are zero in a
	// distributed coordinator's Stats: its workers run them.
	GoldenTime, PruneTime, SimulateTime time.Duration
}

// Executed is the number of experiments this run resolved itself, whether
// by simulation or by static pruning.
func (s Stats) Executed() int { return s.Experiments - s.Restored }

// String renders the stats one-line, for CLI summaries.
func (s Stats) String() string {
	out := fmt.Sprintf("%d experiments in %v with %d worker(s) (%.0f exp/s)",
		s.Experiments, s.Elapsed.Round(time.Millisecond), s.Workers, s.PerSec)
	if s.Pruned > 0 {
		out += fmt.Sprintf(", %d pruned (%d oracle-checked)", s.Pruned, s.OracleChecked)
	}
	if s.Restored > 0 {
		out += fmt.Sprintf(", %d restored from checkpoint", s.Restored)
	}
	if s.Failures > 0 {
		out += fmt.Sprintf(", %d FAILED", s.Failures)
	}
	// A distributed campaign's coordinator runs none of the phases.
	if s.PlanTime+s.GoldenTime+s.PruneTime+s.SimulateTime > 0 {
		out += fmt.Sprintf("; plan %v, worker busy: golden %v, prune %v, simulate %v",
			s.PlanTime.Round(time.Microsecond), s.GoldenTime.Round(time.Microsecond),
			s.PruneTime.Round(time.Microsecond), s.SimulateTime.Round(time.Microsecond))
	}
	return out
}

// Run executes the campaign and returns the full experiment log.
func Run(cfg Config) (*dataset.Dataset, error) {
	ds, _, err := RunStats(cfg)
	return ds, err
}

// RunStats is Run plus wall-clock/throughput accounting. It opens the
// campaign's ledger, which restores the resume checkpoint (if any) and
// writes the checkpoints, and runs the campaign engine over the plan
// indices the ledger does not hold yet.
func RunStats(cfg Config) (*dataset.Dataset, Stats, error) {
	start := time.Now()
	en, err := newEngine(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	cfg = en.cfg
	led, err := openLedger(cfg, en.plan)
	if err != nil {
		return nil, Stats{}, err
	}

	// pending is this run's work list: every plan index the resume
	// checkpoint (if any) did not cover, in canonical order. The engine
	// only records goldens for kernels with pending work, so resuming a
	// nearly finished campaign is nearly free.
	pending := led.pending()

	// Pruned experiments count as completed work, so Progress reports a
	// strictly increasing 1..total over everything this run resolves.
	total := len(pending)
	var (
		prog   int
		progMu sync.Mutex
	)
	rs, runErr := en.resolve(pending, func(idxs []int, outs []lockstep.Outcome) {
		led.put(idxs, outs)
		if cfg.Progress != nil {
			progMu.Lock()
			for range idxs {
				prog++
				cfg.Progress(prog, total)
			}
			progMu.Unlock()
		}
	})
	led.tally(rs.Pruned, rs.OracleChecked)
	ckErr := led.close()

	st := led.stats()
	st.Workers = rs.workers
	st.PlanTime = en.planTime
	st.GoldenTime, st.PruneTime, st.SimulateTime = rs.golden, rs.prune, rs.simulate
	st.Elapsed = time.Since(start)
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.PerSec = float64(st.Executed()) / secs
	}
	en.tel.finish(st)
	if ckErr != nil {
		return nil, st, ckErr
	}
	if runErr != nil {
		return nil, st, runErr
	}
	return &dataset.Dataset{Records: led.records}, st, nil
}

// ledger is the one owner of a campaign's rows by plan index, for RunStats
// and the Coordinator alike: it renders every outcome into its row,
// restores a resume checkpoint's rows, counts the done and the Failed rows
// and the pruning tallies, and, with Config.CheckpointPath set, runs the
// checkpoint writer. put may be called from many goroutines at once, for
// distinct plan indices.
type ledger struct {
	plan    []Experiment
	mode    lockstep.Mode
	records []dataset.Record
	// done[i] is set with release semantics once records[i] is final; the
	// checkpoint writer's acquire loads make its record snapshots
	// consistent.
	done     []atomic.Bool
	restored int
	// doneN counts the done rows and failures the Failed ones, restored
	// rows included. pruned and oracleChecked are the tallies of the rows
	// put since the ledger opened (see Stats).
	doneN, failures, pruned, oracleChecked atomic.Int64

	// The checkpoint writer, nil kick and quit without CheckpointPath. Its
	// goroutine snapshots the done bitmap into spans and persists them
	// atomically every CheckpointEvery completions, and close writes the
	// final checkpoint.
	path       string
	every      int64
	fp         Fingerprint
	kick, quit chan struct{}
	idle       sync.WaitGroup
	writes     atomic.Int64

	// Written by the writer goroutine, read by close after idle.Wait.
	err error
	// prefix is the number of leading plan indices every earlier write
	// found done, and rows their records' rows: they are final, so each is
	// encoded once. tail and buf are the other rows and the file image,
	// reused across writes.
	prefix          int
	rows, tail, buf []byte

	telWrites        *telemetry.Counter
	telDone, telLast *telemetry.Gauge
}

// openLedger opens the ledger of a normalized config's campaign over its
// plan. With Config.Resume it restores the checkpoint at CheckpointPath,
// refusing a corrupt or mismatched one with a typed error, and with
// CheckpointPath set it starts the checkpoint writer.
func openLedger(cfg Config, plan []Experiment) (*ledger, error) {
	l := &ledger{
		plan:    plan,
		mode:    cfg.Mode,
		records: make([]dataset.Record, len(plan)),
		done:    make([]atomic.Bool, len(plan)),
	}
	if cfg.Resume {
		ck, err := ReadCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if err := ck.validate(cfg, len(plan)); err != nil {
			return nil, err
		}
		for _, sp := range ck.Done {
			for i := sp.Lo; i < sp.Hi; i++ {
				r := ck.Records[l.restored]
				l.records[i] = r
				l.done[i].Store(true)
				if r.Failed {
					l.failures.Add(1)
				}
				l.restored++
			}
		}
		l.doneN.Store(int64(l.restored))
		telemetry.Default.Gauge("inject.experiments_restored").Set(int64(l.restored))
	}
	if cfg.CheckpointPath != "" {
		l.path = cfg.CheckpointPath
		l.every = int64(cfg.CheckpointEvery)
		l.fp = cfg.fingerprint()
		l.kick = make(chan struct{}, 1)
		l.quit = make(chan struct{})
		l.telWrites = telemetry.Default.Counter("inject.checkpoint_writes")
		l.telDone = telemetry.Default.Gauge("inject.checkpoint_done")
		l.telLast = telemetry.Default.Gauge("inject.checkpoint_last_unix_ms")
		telemetry.Default.Gauge("inject.checkpoint_total").Set(int64(len(plan)))
		l.idle.Add(1)
		go l.loop()
	}
	return l, nil
}

// pending returns the plan indices whose rows are not done, ascending.
func (l *ledger) pending() []int {
	idxs := make([]int, 0, len(l.done)-l.count())
	for i := range l.done {
		if !l.done[i].Load() {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// count returns the number of done rows, restored ones included.
func (l *ledger) count() int { return int(l.doneN.Load()) }

// put renders outs[i] into the row of plan index idxs[i] and marks the
// rows done, with one atomic count per batch. A checkpoint write is due
// whenever the count of rows put since the ledger opened crosses a
// multiple of CheckpointEvery.
func (l *ledger) put(idxs []int, outs []lockstep.Outcome) {
	for i, idx := range idxs {
		l.records[idx] = recordFor(l.plan[idx], outs[i], l.mode)
		if outs[i].Failed {
			l.failures.Add(1)
		}
		l.done[idx].Store(true)
	}
	n := int64(len(idxs))
	now := l.doneN.Add(n) - int64(l.restored)
	if l.kick != nil && now/l.every != (now-n)/l.every {
		select {
		case l.kick <- struct{}{}:
		default: // a write is already due; it will see these rows
		}
	}
}

// tally adds the pruning counts of rows put to the campaign's, and to the
// inject.pruned and inject.pruned_oracle_checked counters.
func (l *ledger) tally(pruned, oracleChecked int) {
	if pruned > 0 {
		l.pruned.Add(int64(pruned))
		telemetry.Default.Counter("inject.pruned").Add(int64(pruned))
	}
	if oracleChecked > 0 {
		l.oracleChecked.Add(int64(oracleChecked))
		telemetry.Default.Counter("inject.pruned_oracle_checked").Add(int64(oracleChecked))
	}
}

// stats fills the counts of the campaign's Stats: every done row, the
// restored and the Failed ones among them, the pruning tallies and the
// checkpoint files written. The driver adds its own times and workers.
func (l *ledger) stats() Stats {
	return Stats{
		Experiments:   l.count(),
		Restored:      l.restored,
		Pruned:        int(l.pruned.Load()),
		OracleChecked: int(l.oracleChecked.Load()),
		Failures:      int(l.failures.Load()),
		Checkpoints:   int(l.writes.Load()),
	}
}

func (l *ledger) loop() {
	defer l.idle.Done()
	for {
		select {
		case <-l.kick:
			l.write()
		case <-l.quit:
			return
		}
	}
}

// write snapshots the done bitmap into sorted disjoint spans and persists
// the checkpoint. A record whose done bit is set is final, so the rows of
// the done prefix carry over from the last write and only the rest are
// encoded again. The campaign keeps running on a write error; the first
// error is surfaced by close, so a full dataset is never discarded because
// one checkpoint write failed mid-run.
func (l *ledger) write() {
	for l.prefix < len(l.done) && l.done[l.prefix].Load() {
		l.rows = appendRow(l.rows, l.records[l.prefix])
		l.prefix++
	}
	var spans []Span
	if l.prefix > 0 {
		spans = append(spans, Span{Lo: 0, Hi: l.prefix})
	}
	n := l.prefix
	l.tail = l.tail[:0]
	for i := l.prefix; i < len(l.done); i++ {
		if !l.done[i].Load() {
			continue
		}
		if k := len(spans); k > 0 && spans[k-1].Hi == i {
			spans[k-1].Hi = i + 1
		} else {
			spans = append(spans, Span{Lo: i, Hi: i + 1})
		}
		l.tail = appendRow(l.tail, l.records[i])
		n++
	}
	var err error
	if l.buf, err = appendCheckpoint(l.buf[:0], l.fp, len(l.records), spans, n, l.rows, l.tail); err == nil {
		err = atomicfile.Write(l.path, l.buf)
	}
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return
	}
	l.writes.Add(1)
	l.telWrites.Inc()
	l.telDone.Set(int64(n))
	l.telLast.Set(time.Now().UnixMilli())
}

// close stops the checkpoint writer and writes the final checkpoint,
// which covers the whole plan on a completed campaign, and returns the
// first write error, if any. Without a writer, or once closed, it does
// nothing.
func (l *ledger) close() error {
	if l.quit == nil {
		return nil
	}
	close(l.quit)
	l.idle.Wait()
	l.quit = nil
	l.write()
	if l.err != nil {
		return fmt.Errorf("inject: checkpoint: %w", l.err)
	}
	return nil
}

// campaignTelemetry holds the pre-created metric handles for one
// campaign, so experiment workers record with pure atomic operations and
// never touch the registry's mutex on the hot path. All metrics land in
// telemetry.Default; recording does not influence the experiment
// schedule or outcomes, so datasets stay bit-identical with or without a
// metrics consumer attached.
type campaignTelemetry struct {
	// outcomes[k*kinds+j] is the handle set of the kernel at position k
	// of Config.Kernels and the fault kind at position j of Config.Kinds.
	// The plan is kernel-major, so both positions follow from the plan
	// index idx: k is idx/perKernel and j is idx/perGroup%kinds, where
	// perGroup is the injections per (kernel, flop, kind) group.
	outcomes            []outcomeTel
	kinds               int
	perKernel, perGroup int
	experiments         *telemetry.Counter
	failures            *telemetry.Counter
	goldenBytes         *telemetry.Gauge
}

// outcomeTel is the per-(kernel, kind) handle set: one counter per
// outcome class plus the detection-latency histogram (injection cycle to
// checker detection, the paper's manifestation time).
type outcomeTel struct {
	class   [numClasses]*telemetry.Counter
	latency *telemetry.Histogram
}

// The outcome classes of the inject.outcomes counters, by index.
const (
	classFailed = iota
	classDetected
	classConverged
	classEscaped
	numClasses
)

var classNames = [numClasses]string{"failed", "detected", "converged", "escaped"}

func newCampaignTelemetry(cfg Config) *campaignTelemetry {
	t := &campaignTelemetry{
		outcomes:    make([]outcomeTel, 0, len(cfg.Kernels)*len(cfg.Kinds)),
		kinds:       len(cfg.Kinds),
		perKernel:   cfg.perKernel(),
		perGroup:    cfg.InjectionsPerFlopKind,
		experiments: telemetry.Default.Counter("inject.experiments"),
		failures:    telemetry.Default.Counter("inject.experiment_failures"),
		goldenBytes: telemetry.Default.Gauge("inject.golden_trace_bytes"),
	}
	for _, kernel := range cfg.Kernels {
		for _, kind := range cfg.Kinds {
			kk, kd := telemetry.L("kernel", kernel), telemetry.L("kind", kind.String())
			var o outcomeTel
			for c, name := range classNames {
				o.class[c] = telemetry.Default.Counter("inject.outcomes", kk, kd, telemetry.L("outcome", name))
			}
			o.latency = telemetry.Default.Histogram("inject.detect_latency", telemetry.CycleBuckets, kk, kd)
			t.outcomes = append(t.outcomes, o)
		}
	}
	return t
}

// tally counts plan index idx's outcome into a worker's batch tally,
// tally[kind*numClasses+class] for the kind's position, and observes its
// detection latency. add then publishes the tally of a batch of one
// kernel in one atomic add per class.
func (t *campaignTelemetry) tally(tally []int64, idx, cycle int, out lockstep.Outcome) {
	kind := idx / t.perGroup % t.kinds
	c := classEscaped
	switch {
	case out.Failed:
		c = classFailed
	case out.Detected:
		c = classDetected
		t.outcomes[idx/t.perKernel*t.kinds+kind].latency.Observe(int64(out.DetectCycle - cycle))
	case out.Converged:
		c = classConverged
	}
	tally[kind*numClasses+c]++
}

// add publishes a batch tally of the kernel at position kernel.
func (t *campaignTelemetry) add(kernel int, tally []int64) {
	var n int64
	for i, v := range tally {
		if v == 0 {
			continue
		}
		n += v
		t.outcomes[kernel*t.kinds+i/numClasses].class[i%numClasses].Add(v)
		if i%numClasses == classFailed {
			t.failures.Add(v)
		}
	}
	t.experiments.Add(n)
}

func (t *campaignTelemetry) finish(st Stats) {
	telemetry.Default.Gauge("inject.workers").Set(int64(st.Workers))
	telemetry.Default.Gauge("inject.elapsed_ms").Set(st.Elapsed.Milliseconds())
	telemetry.Default.Gauge("inject.per_sec").Set(int64(st.PerSec))
	telemetry.Default.Gauge("inject.phase_plan_ms").Set(st.PlanTime.Milliseconds())
	telemetry.Default.Gauge("inject.phase_golden_ms").Set(st.GoldenTime.Milliseconds())
	telemetry.Default.Gauge("inject.phase_prune_ms").Set(st.PruneTime.Milliseconds())
	telemetry.Default.Gauge("inject.phase_simulate_ms").Set(st.SimulateTime.Milliseconds())
}
