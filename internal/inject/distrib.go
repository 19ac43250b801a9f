// Distributed campaign execution: span leases and byte-identical merge.
//
// A campaign's plan is a fixed, seed-determined list of experiments, and
// every outcome depends only on its plan entry and the kernel's golden
// run — never on which machine executed it. That is the whole soundness
// argument for distribution: a Coordinator owns the plan-index space and
// hands out half-open [Lo, Hi) span *leases* to worker nodes; each worker
// reconstructs the identical plan and goldens from the campaign's
// schedule Fingerprint, executes its leased indices on the same engine
// inject.Run uses (SpanRunner), and sends the outcomes back. The
// coordinator renders each outcome into its dataset row from its own
// plan entry, through the same recordFor inject.Run uses, so the final
// dataset is byte-identical to a single-machine run at any worker count
// and any lease size, and no row column comes from the worker.
//
// Failure handling is lease expiry + re-issue: a lease not committed
// before its deadline returns to the free pool and is granted to the next
// worker that asks. Commits are idempotent by construction — a span is
// only committed once; a late commit for an already-covered span is
// recognized as a duplicate and dropped, and a late commit for a span
// that has been re-issued but not yet re-committed is refused with a
// typed *LeaseExpiredError (the re-issued lease's holder will produce the
// identical outcomes). Every lease and commit is authenticated by the
// campaign's fingerprint digest, so a worker pointed at the wrong
// coordinator (or built against a different trace version) is refused
// with a *StaleFingerprintError before it can touch the dataset, and a
// submission no coordinator state could accept is refused with a
// *MessageError.
//
// The coordinator reuses the campaign checkpoint machinery verbatim:
// merged spans persist in the same atomic CRC-sealed checkpoint file, so
// a coordinator crash resumes mid-campaign and only the uncovered indices
// are re-leased.
package inject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
	"lockstep/internal/workload"
)

// MaxLeaseSpan bounds one lease, and therefore one span submission, in
// plan indices. A worst-case submission (every outcome detected,
// converged and failed, with the largest cycle and DSR) takes about 100
// bytes of JSON per outcome, so a full span stays under 13 MB.
const MaxLeaseSpan = 1 << 17

// maxNameBytes bounds the worker name and digest of a lease request or
// span submission.
const maxNameBytes = 256

// MessageError reports a lease request or span submission that no
// coordinator state could accept: a span outside the plan, an outcome
// count that differs from the span's length, an outcome outside its
// plan entry's bounds, or an oversized name.
type MessageError struct {
	Reason string
}

func (e *MessageError) Error() string {
	return "inject: bad distributed-campaign message: " + e.Reason
}

func badMessage(format string, args ...any) *MessageError {
	return &MessageError{Reason: fmt.Sprintf(format, args...)}
}

// checkNames refuses an oversized worker name or digest before either is
// kept as a metric label or echoed in an error.
func checkNames(worker, digest string) error {
	if len(worker) > maxNameBytes || len(digest) > maxNameBytes {
		return badMessage("worker name or digest longer than %d bytes", maxNameBytes)
	}
	return nil
}

// StaleFingerprintError reports a lease or span message whose schedule
// digest does not match the coordinator's campaign — a worker joined to
// the wrong coordinator, or built against an incompatible trace version.
type StaleFingerprintError struct {
	Got, Want string
}

func (e *StaleFingerprintError) Error() string {
	return fmt.Sprintf("inject: stale campaign fingerprint: digest %q does not match this campaign (%s); the worker is joined to a different campaign or built against a different trace version", e.Got, e.Want)
}

// LeaseExpiredError reports a span commit under a lease the coordinator
// no longer holds, where the span is not already covered: the lease
// expired and was re-issued to another worker. The outcomes are
// discarded (the re-issued lease will produce identical ones).
type LeaseExpiredError struct {
	ID uint64
	Sp Span
}

func (e *LeaseExpiredError) Error() string {
	return fmt.Sprintf("inject: lease %d over span [%d,%d) expired and was re-issued; span discarded", e.ID, e.Sp.Lo, e.Sp.Hi)
}

// LeaseStatus is the coordinator's answer to a lease request.
type LeaseStatus int

const (
	// LeaseGranted carries a span lease to execute.
	LeaseGranted LeaseStatus = 1
	// LeaseWait means every remaining index is leased out; retry later.
	LeaseWait LeaseStatus = 2
	// LeaseDone means the campaign is complete; the worker can exit.
	LeaseDone LeaseStatus = 3
)

func (s LeaseStatus) String() string {
	switch s {
	case LeaseGranted:
		return "granted"
	case LeaseWait:
		return "wait"
	case LeaseDone:
		return "done"
	}
	return fmt.Sprintf("LeaseStatus(%d)", int(s))
}

// LeaseRequest asks the coordinator for a span lease.
type LeaseRequest struct {
	Worker string `json:"worker"`         // stable worker identity (affinity + per-worker stats)
	Digest string `json:"digest"`         // campaign fingerprint digest the worker was joined with
	Want   int    `json:"want,omitempty"` // preferred span length; 0 = coordinator default
}

// LeaseReply answers a LeaseRequest. FP, Total and Done are always set;
// LeaseID, Span and TTL only when Status is LeaseGranted, Retry only
// when LeaseWait.
type LeaseReply struct {
	Status  LeaseStatus   `json:"status"`
	Total   int           `json:"total"`
	Done    int           `json:"done"`
	FP      Fingerprint   `json:"fingerprint"` // the schedule; workers rebuild the Config from it
	LeaseID uint64        `json:"lease_id,omitempty"`
	Span    Span          `json:"span"`
	TTL     time.Duration `json:"ttl_ns,omitempty"`
	Retry   time.Duration `json:"retry_ns,omitempty"`
}

// SpanSubmit carries one completed span's outcomes back to the
// coordinator, which renders each into its dataset row from its own plan.
type SpanSubmit struct {
	Worker  string `json:"worker"`
	Digest  string `json:"digest"`
	LeaseID uint64 `json:"lease_id"`
	Span    Span   `json:"span"`
	// BusyUS is the worker's wall-clock microseconds spent executing the
	// span (golden builds included) — the coordinator's per-worker
	// throughput gauges are computed from it.
	BusyUS        int64              `json:"busy_us"`
	Pruned        int                `json:"pruned"`
	OracleChecked int                `json:"oracle_checked"`
	Outcomes      []lockstep.Outcome `json:"outcomes"` // exactly Span.Hi-Span.Lo, plan order
}

// SpanReply acknowledges a SpanSubmit.
type SpanReply struct {
	Duplicate bool `json:"duplicate,omitempty"` // span was already covered; outcomes dropped, not an error
	Done      int  `json:"done"`                // campaign-wide merged experiments
	Total     int  `json:"total"`
}

// DistConfig sizes the coordinator's lease policy.
type DistConfig struct {
	// LeaseSize is the default span length in plan indices (0 = 512).
	// Workers may ask for less or more; grants are clamped to the kernel
	// block containing the span so one lease never straddles two goldens.
	LeaseSize int
	// LeaseTTL is how long a worker holds an uncommitted lease before it
	// is re-issued (0 = 30s). Pick it well above a span's execution time:
	// an expired-but-alive worker's commit is discarded and redone.
	LeaseTTL time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

func (dc *DistConfig) normalize() {
	if dc.LeaseSize <= 0 {
		dc.LeaseSize = 512
	}
	if dc.LeaseSize > MaxLeaseSpan {
		dc.LeaseSize = MaxLeaseSpan
	}
	if dc.LeaseTTL <= 0 {
		dc.LeaseTTL = 30 * time.Second
	}
	if dc.now == nil {
		dc.now = time.Now
	}
}

// leaseState is one outstanding lease.
type leaseState struct {
	id       uint64
	sp       Span
	worker   string
	deadline time.Time
	reissued bool // the span had been leased before (expiry path)
}

// freeSpan is an unleased, uncovered plan-index range.
type freeSpan struct {
	Span
	reissued bool
}

// distWorker is the coordinator's per-worker bookkeeping: the kernel
// block the worker last executed in (lease affinity keeps a worker inside
// one golden as long as that block has work, so worker nodes build as few
// goldens as possible) and its throughput accounting.
type distWorker struct {
	block       int // kernel-block index of the last lease
	experiments int64
	busyUS      int64
	sawDone     bool // worker has observed campaign completion
	perSec      *telemetry.Gauge
}

// Coordinator owns one distributed campaign: the plan, the lease table,
// the merged records and the checkpoint. It never builds goldens or
// simulates — coordination is cheap enough to run anywhere, including on
// a node that is also serving predictions.
//
// All methods are safe for concurrent use by HTTP handlers.
type Coordinator struct {
	cfg    Config
	fp     Fingerprint
	digest string
	plan   []Experiment // renders each committed outcome into its row
	total  int
	dc     DistConfig
	// kernelBlock is the plan-index length of one kernel's contiguous
	// block (the plan is kernel-major with equal-sized blocks).
	kernelBlock int
	start       time.Time

	mu       sync.Mutex
	records  []dataset.Record
	done     []atomic.Bool
	doneN    int
	restored int
	free     []freeSpan
	leases   map[uint64]*leaseState
	nextID   uint64
	workers  map[string]*distWorker
	closed   bool
	// quietAt is when every worker told to wait so far has polled again:
	// the last LeaseWait reply plus twice its Retry. Such a worker has no
	// entry in workers until it is granted a lease.
	quietAt time.Time

	issued, expired, reissued int64
	merged, duplicates        int64
	pruned, oracleChecked     int64

	ckp      *checkpointer
	ckWrites int

	completeOnce sync.Once
	completeCh   chan struct{}

	telIssued, telExpired, telReissued *telemetry.Counter
	telMerged, telDup                  *telemetry.Counter
}

// NewCoordinator builds the coordinator for cfg. With cfg.CheckpointPath
// set the merged spans are checkpointed exactly like a local campaign;
// with cfg.Resume the existing checkpoint is restored (refusing corrupt
// files and config mismatches with the same typed errors as inject.Run)
// and only the uncovered plan indices are leased out.
func NewCoordinator(cfg Config, dc DistConfig) (*Coordinator, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	dc.normalize()
	plan, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	total := len(plan)
	c := &Coordinator{
		cfg:         cfg,
		fp:          cfg.fingerprint(),
		plan:        plan,
		total:       total,
		dc:          dc,
		kernelBlock: total / len(cfg.Kernels),
		start:       dc.now(),
		records:     make([]dataset.Record, total),
		done:        make([]atomic.Bool, total),
		leases:      map[uint64]*leaseState{},
		workers:     map[string]*distWorker{},
		completeCh:  make(chan struct{}),
		telIssued:   telemetry.Default.Counter("inject.leases_issued"),
		telExpired:  telemetry.Default.Counter("inject.leases_expired"),
		telReissued: telemetry.Default.Counter("inject.leases_reissued"),
		telMerged:   telemetry.Default.Counter("inject.spans_merged"),
		telDup:      telemetry.Default.Counter("inject.span_duplicates"),
	}
	c.digest = c.fp.Digest()
	if cfg.Resume {
		if c.restored, err = restoreCheckpoint(cfg, c.records, c.done); err != nil {
			return nil, err
		}
		c.doneN = c.restored
	}
	// The free list is the complement of the restored spans, in order.
	lo := 0
	for i := 0; i <= total; i++ {
		if i == total || c.done[i].Load() {
			if lo < i {
				c.free = append(c.free, freeSpan{Span: Span{Lo: lo, Hi: i}})
			}
			lo = i + 1
		}
	}
	if cfg.CheckpointPath != "" {
		c.ckp = startCheckpointer(cfg, c.records, c.done)
	}
	if c.doneN == total {
		c.completeOnce.Do(func() { close(c.completeCh) })
	}
	return c, nil
}

// Digest returns the campaign's schedule-fingerprint digest — the
// identity every lease and span message must carry (and the campaign's
// job ID in lockstep-serve).
func (c *Coordinator) Digest() string { return c.digest }

// Fingerprint returns the campaign's schedule fingerprint; a worker
// reconstructs the identical Config (and therefore plan and goldens)
// from it.
func (c *Coordinator) Fingerprint() Fingerprint { return c.fp }

// Total returns the campaign plan length.
func (c *Coordinator) Total() int { return c.total }

// Progress returns merged (restored included) and total experiment
// counts.
func (c *Coordinator) Progress() (done, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doneN, c.total
}

// blockOf maps a plan index onto its kernel-block index.
func (c *Coordinator) blockOf(idx int) int {
	if c.kernelBlock <= 0 {
		return 0
	}
	return idx / c.kernelBlock
}

// blockEnd returns the plan index ending the kernel block containing idx.
func (c *Coordinator) blockEnd(idx int) int {
	if c.kernelBlock <= 0 {
		return c.total
	}
	end := (idx/c.kernelBlock + 1) * c.kernelBlock
	if end > c.total {
		end = c.total
	}
	return end
}

// expire returns every overdue lease's span to the free pool (marked for
// re-issue). Expiry is lazy — checked whenever a worker asks for work —
// so no background timer is needed: a dead worker's span is re-issued
// exactly when a live worker could use it.
func (c *Coordinator) expire(now time.Time) {
	for id, ls := range c.leases {
		if now.Before(ls.deadline) {
			continue
		}
		delete(c.leases, id)
		c.insertFree(freeSpan{Span: ls.sp, reissued: true})
		c.expired++
		c.telExpired.Inc()
	}
}

// insertFree puts sp back into the sorted free list.
func (c *Coordinator) insertFree(sp freeSpan) {
	at := len(c.free)
	for i, f := range c.free {
		if sp.Lo < f.Lo {
			at = i
			break
		}
	}
	c.free = append(c.free, freeSpan{})
	copy(c.free[at+1:], c.free[at:])
	c.free[at] = sp
}

// pickFree chooses where the worker's next lease is cut from: the
// worker's current kernel block if it still has free work (so the
// worker keeps reusing the golden it already built), else the block
// with the fewest active leases that still has free work (spreading
// workers across kernels so a cluster builds each golden as few times
// as possible), lowest block index on ties. Free spans may straddle
// block boundaries, so the pick is a (free index, cut plan index) pair;
// Acquire carves the lease out of the span starting at the cut. block
// is the worker's current kernel block, -1 for a worker without a lease.
func (c *Coordinator) pickFree(block int) (int, int) {
	if len(c.free) == 0 {
		return -1, 0
	}
	firstIn := map[int]int{} // block -> first intersecting free index
	cutAt := map[int]int{}   // block -> plan index to cut at
	for i, f := range c.free {
		for b := c.blockOf(f.Lo); b <= c.blockOf(f.Hi-1); b++ {
			if _, ok := firstIn[b]; ok {
				continue
			}
			firstIn[b] = i
			lo := f.Lo
			if bs := b * c.kernelBlock; lo < bs {
				lo = bs
			}
			cutAt[b] = lo
		}
	}
	if block >= 0 {
		if i, ok := firstIn[block]; ok {
			return i, cutAt[block]
		}
	}
	active := map[int]int{}
	for _, ls := range c.leases {
		active[c.blockOf(ls.sp.Lo)]++
	}
	best, bestLoad := -1, -1
	for b := range firstIn {
		if best == -1 || active[b] < bestLoad || (active[b] == bestLoad && b < best) {
			best, bestLoad = b, active[b]
		}
	}
	return firstIn[best], cutAt[best]
}

// Acquire answers one worker's lease request. digest must match the
// campaign (see StaleFingerprintError); want is the preferred span
// length (0 = the coordinator's default). The reply is ready for the
// wire: it carries the fingerprint, progress, and — when granted — the
// lease ID, span and TTL.
func (c *Coordinator) Acquire(worker, digest string, want int) (*LeaseReply, error) {
	if err := checkNames(worker, digest); err != nil {
		return nil, err
	}
	if digest != c.digest {
		return nil, &StaleFingerprintError{Got: digest, Want: c.digest}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	reply := &LeaseReply{FP: c.fp, Total: c.total, Done: c.doneN}
	if c.closed && c.doneN < c.total {
		return nil, fmt.Errorf("inject: coordinator is shutting down")
	}
	if c.doneN == c.total {
		if w := c.workers[worker]; w != nil {
			w.sawDone = true
		}
		reply.Status = LeaseDone
		return reply, nil
	}
	c.expire(c.dc.now())
	w := c.workers[worker]
	block := -1
	if w != nil {
		block = w.block
	}
	i, lo := c.pickFree(block)
	if i < 0 {
		reply.Status = LeaseWait
		// All spans are leased out (or restored): the wait ends either by
		// another worker finishing the campaign or by a lease expiring, so
		// poll well under the TTL and never so slowly that a near-done
		// campaign keeps an idle worker stalled.
		reply.Retry = c.dc.LeaseTTL / 4
		if reply.Retry < 50*time.Millisecond {
			reply.Retry = 50 * time.Millisecond
		}
		if reply.Retry > 250*time.Millisecond {
			reply.Retry = 250 * time.Millisecond
		}
		c.quietAt = time.Now().Add(2 * reply.Retry)
		return reply, nil
	}
	f := c.free[i]
	size := want
	if size <= 0 {
		size = c.dc.LeaseSize
	}
	if size > MaxLeaseSpan {
		size = MaxLeaseSpan
	}
	hi := lo + size
	if end := c.blockEnd(lo); hi > end {
		hi = end
	}
	if hi > f.Hi {
		hi = f.Hi
	}
	sp := Span{Lo: lo, Hi: hi}
	switch {
	case lo == f.Lo && hi == f.Hi:
		c.free = append(c.free[:i], c.free[i+1:]...)
	case lo == f.Lo:
		c.free[i].Lo = hi
	case hi == f.Hi:
		c.free[i].Hi = lo
	default:
		// Cut from the middle of a straddling span: keep the head in
		// place, give the tail its own free entry.
		c.free[i].Hi = lo
		c.insertFree(freeSpan{Span: Span{Lo: hi, Hi: f.Hi}, reissued: f.reissued})
	}
	c.nextID++
	ls := &leaseState{
		id:       c.nextID,
		sp:       sp,
		worker:   worker,
		deadline: c.dc.now().Add(c.dc.LeaseTTL),
		reissued: f.reissued,
	}
	c.leases[ls.id] = ls
	if w == nil {
		// A worker is known from its first lease on, so a name that only
		// ever waits leaves no entry and no gauge behind.
		w = &distWorker{perSec: telemetry.Default.Gauge("inject.worker_per_sec", telemetry.L("worker", worker))}
		c.workers[worker] = w
	}
	w.block = c.blockOf(sp.Lo)
	c.issued++
	c.telIssued.Inc()
	if f.reissued {
		c.reissued++
		c.telReissued.Inc()
	}
	reply.Status = LeaseGranted
	reply.LeaseID = ls.id
	reply.Span = sp
	reply.TTL = c.dc.LeaseTTL
	return reply, nil
}

// Commit merges one completed span. It is idempotent: a span whose
// indices are all already covered is acknowledged as a duplicate and
// dropped; a commit under an expired-and-re-issued lease whose span is
// not yet covered is refused with *LeaseExpiredError. A successful
// commit renders each outcome into its row from the coordinator's own
// plan entry, writes the rows at their plan indices — canonical plan
// order by construction — and feeds the checkpointer. A submission
// whose span, counts or outcomes no campaign state could accept is
// refused with *MessageError.
func (c *Coordinator) Commit(sub *SpanSubmit) (*SpanReply, error) {
	if err := checkNames(sub.Worker, sub.Digest); err != nil {
		return nil, err
	}
	if sub.Digest != c.digest {
		return nil, &StaleFingerprintError{Got: sub.Digest, Want: c.digest}
	}
	if err := c.checkSpan(sub); err != nil {
		return nil, err
	}
	sp := sub.Span
	c.mu.Lock()
	defer c.mu.Unlock()
	reply := &SpanReply{Total: c.total}
	ls := c.leases[sub.LeaseID]
	if ls == nil || ls.sp != sp {
		covered := true
		for i := sp.Lo; i < sp.Hi; i++ {
			if !c.done[i].Load() {
				covered = false
				break
			}
		}
		reply.Done = c.doneN
		if covered {
			reply.Duplicate = true
			c.duplicates++
			c.telDup.Inc()
			if w := c.workers[sub.Worker]; w != nil && c.doneN == c.total {
				w.sawDone = true
			}
			return reply, nil
		}
		return nil, &LeaseExpiredError{ID: sub.LeaseID, Sp: sp}
	}
	if c.closed {
		return nil, fmt.Errorf("inject: coordinator is shutting down")
	}
	delete(c.leases, sub.LeaseID)
	for i := sp.Lo; i < sp.Hi; i++ {
		c.records[i] = recordFor(c.plan[i], sub.Outcomes[i-sp.Lo], c.cfg.Mode)
		c.done[i].Store(true)
		if c.ckp != nil {
			c.ckp.completed()
		}
	}
	n := sp.Hi - sp.Lo
	c.doneN += n
	c.merged++
	c.telMerged.Inc()
	c.pruned += int64(sub.Pruned)
	c.oracleChecked += int64(sub.OracleChecked)
	if sub.Pruned > 0 {
		telemetry.Default.Counter("inject.pruned").Add(int64(sub.Pruned))
	}
	if sub.OracleChecked > 0 {
		telemetry.Default.Counter("inject.pruned_oracle_checked").Add(int64(sub.OracleChecked))
	}
	if w := c.workers[sub.Worker]; w != nil {
		w.experiments += int64(n)
		w.busyUS += sub.BusyUS
		if w.busyUS > 0 {
			w.perSec.Set(w.experiments * 1_000_000 / w.busyUS)
		}
	}
	reply.Done = c.doneN
	if c.doneN == c.total {
		if w := c.workers[sub.Worker]; w != nil {
			w.sawDone = true
		}
		c.completeOnce.Do(func() { close(c.completeCh) })
	}
	return reply, nil
}

// checkSpan refuses a submission no campaign state could accept: a span
// outside the plan, counts that do not fit the span, or an outcome
// outside its plan entry's bounds. A detected outcome's DetectCycle lies
// in [its injection cycle, RunCycles); an undetected one carries neither
// a DetectCycle nor a DSR.
func (c *Coordinator) checkSpan(sub *SpanSubmit) error {
	sp := sub.Span
	if sp.Lo < 0 || sp.Lo >= sp.Hi || sp.Hi > c.total {
		return badMessage("span [%d,%d) outside plan of %d", sp.Lo, sp.Hi, c.total)
	}
	n := sp.Hi - sp.Lo
	if len(sub.Outcomes) != n {
		return badMessage("span [%d,%d) carries %d outcomes, want %d", sp.Lo, sp.Hi, len(sub.Outcomes), n)
	}
	if sub.BusyUS < 0 || sub.Pruned < 0 || sub.Pruned > n || sub.OracleChecked < 0 || sub.OracleChecked > n {
		return badMessage("span [%d,%d) reports busy %d us, %d pruned, %d oracle-checked", sp.Lo, sp.Hi, sub.BusyUS, sub.Pruned, sub.OracleChecked)
	}
	for i, out := range sub.Outcomes {
		e := c.plan[sp.Lo+i]
		switch {
		case out.Detected && (out.DetectCycle < e.Cycle || out.DetectCycle >= c.cfg.RunCycles):
			return badMessage("plan index %d: detect cycle %d outside [%d,%d)", sp.Lo+i, out.DetectCycle, e.Cycle, c.cfg.RunCycles)
		case !out.Detected && (out.DetectCycle != 0 || out.DSR != 0):
			return badMessage("plan index %d: undetected outcome carries detect cycle %d, DSR %#x", sp.Lo+i, out.DetectCycle, out.DSR)
		}
	}
	return nil
}

// DrainWorkers blocks until every worker that ever held a lease has
// observed campaign completion — a LeaseDone acquire reply, or a commit
// ack showing done == total — and every worker that was only ever told
// to wait has had time to poll again, or until timeout. The standalone
// coordinator calls this before closing its listener so that workers
// which did not land the final commit pick up LeaseDone on their next
// poll and exit cleanly, instead of dying on connection-refused against
// a vanished coordinator. A worker that only waited is not named in the
// coordinator's state; it polls again within the Retry of its last
// LeaseWait, and no LeaseWait is sent once the campaign is done, so
// waiting out quietAt covers it. A worker that crashed never polls
// again; timeout is what bounds the wait on its behalf.
func (c *Coordinator) DrainWorkers(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		waiting := 0
		for _, w := range c.workers {
			if !w.sawDone {
				waiting++
			}
		}
		quietAt := c.quietAt
		c.mu.Unlock()
		now := time.Now()
		if (waiting == 0 && !now.Before(quietAt)) || !now.Before(deadline) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Done reports campaign completion without blocking.
func (c *Coordinator) Done() bool {
	select {
	case <-c.completeCh:
		return true
	default:
		return false
	}
}

// WaitDone blocks until every span is merged or cancel fires. Either way
// the final checkpoint is written (covering everything merged so far), so
// a canceled or crashed coordinator resumes mid-campaign; cancellation
// returns ErrCanceled, mirroring inject.RunStats.
func (c *Coordinator) WaitDone(cancel <-chan struct{}) error {
	canceled := false
	select {
	case <-c.completeCh:
	case <-cancel:
		canceled = true
	}
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	if c.ckp != nil {
		n, err := c.ckp.stop()
		c.ckWrites = n
		c.ckp = nil
		if err != nil {
			return fmt.Errorf("inject: checkpoint: %w", err)
		}
	}
	if canceled {
		return ErrCanceled
	}
	return nil
}

// Result returns the merged dataset and the campaign stats once every
// span is committed.
func (c *Coordinator) Result() (*dataset.Dataset, Stats, error) {
	if !c.Done() {
		done, total := c.Progress()
		return nil, c.Stats(), fmt.Errorf("inject: campaign incomplete (%d/%d experiments merged)", done, total)
	}
	st := c.Stats()
	for i := range c.records {
		if c.records[i].Failed {
			st.Failures++
		}
	}
	return &dataset.Dataset{Records: c.records}, st, nil
}

// Stats reports the distributed campaign the same way RunStats does:
// Experiments counts merged records (restored included), PerSec is
// merge throughput over the coordinator's wall clock.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Experiments:   c.doneN,
		Restored:      c.restored,
		Pruned:        int(c.pruned),
		OracleChecked: int(c.oracleChecked),
		Checkpoints:   c.ckWrites,
		Workers:       len(c.workers),
		Elapsed:       c.dc.now().Sub(c.start),
	}
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.PerSec = float64(st.Executed()) / secs
	}
	return st
}

// Summary renders the lease-lifecycle counters one-line, for CLI
// summaries and tests.
func (c *Coordinator) Summary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("leases: %d issued, %d expired, %d reissued; spans: %d merged, %d duplicate; workers: %d",
		c.issued, c.expired, c.reissued, c.merged, c.duplicates, len(c.workers))
}

// Config reconstructs the runnable campaign Config a Fingerprint pins.
// The round trip is exact — cfg.fingerprint() of the result equals f —
// which is what lets a worker node rebuild the identical plan, goldens
// and pruning analysis from the coordinator's fingerprint alone. A
// fingerprint from a build with a different golden-trace/pruning
// generation is refused: its goldens would not be comparable.
func (f Fingerprint) Config() (Config, error) {
	if f.TraceVersion != lockstep.TraceVersion {
		return Config{}, fmt.Errorf("inject: campaign ran trace version %d, this build has %d; use matching builds on every node", f.TraceVersion, lockstep.TraceVersion)
	}
	kinds := make([]lockstep.FaultKind, len(f.Kinds))
	for i, k := range f.Kinds {
		if k < 0 || lockstep.FaultKind(k) >= lockstep.NumFaultKinds {
			return Config{}, fmt.Errorf("inject: fingerprint names unknown fault kind %d", k)
		}
		kinds[i] = lockstep.FaultKind(k)
	}
	for _, name := range f.Kernels {
		if workload.ByName(name) == nil {
			return Config{}, fmt.Errorf("inject: fingerprint names unknown kernel %q", name)
		}
	}
	mode, err := lockstep.ParseMode(f.Mode)
	if err != nil {
		return Config{}, fmt.Errorf("inject: fingerprint mode: %w", err)
	}
	return Config{
		Kernels:               append([]string(nil), f.Kernels...),
		RunCycles:             f.RunCycles,
		Intervals:             f.Intervals,
		InjectionsPerFlopKind: f.InjectionsPerFlopKind,
		FlopStride:            f.FlopStride,
		Kinds:                 kinds,
		StopLatency:           f.StopLatency,
		Seed:                  f.Seed,
		Legacy:                f.Legacy,
		NoPrune:               f.NoPrune,
		Mode:                  mode,
	}, nil
}

// SpanStats reports how one leased span executed.
type SpanStats struct {
	Pruned        int // outcomes proved statically, recorded without simulating
	OracleChecked int // pruned sites re-simulated by the differential oracle
	Failures      int // experiments recorded as Failed by the containment layer
}

// SpanRunner is the worker-node side of a distributed campaign: the
// campaign engine over the plan reconstructed from the coordinator's
// fingerprint, with goldens built on demand and per-executor replay
// scratch reused across spans. One runner serves one campaign; Run is not
// safe for concurrent use (a worker node runs its leased spans serially
// and parallelizes inside the span).
type SpanRunner struct {
	en *engine
}

// NewSpanRunner builds the runner for cfg. Config.Workers sets the
// in-span parallelism; everything schedule-relevant must come from the
// coordinator's fingerprint (Fingerprint.Config) or the span will not be
// accepted.
func NewSpanRunner(cfg Config) (*SpanRunner, error) {
	en, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &SpanRunner{en: en}, nil
}

// Total returns the plan length (must equal the coordinator's).
func (r *SpanRunner) Total() int { return len(r.en.plan) }

// Digest returns the runner's schedule digest, for join-time auth.
func (r *SpanRunner) Digest() string { return r.en.cfg.fingerprint().Digest() }

// Run executes plan indices [sp.Lo, sp.Hi) on the same engine as RunStats
// and returns their outcomes in plan order. They are the outcomes a
// single-machine inject.Run renders at those indices: the plan, pruning
// decisions and oracle sampling are all keyed only by the campaign seed
// and the experiment coordinates. Leases are cut at kernel-block
// boundaries and granted with block affinity, so a worker typically
// builds one golden and reuses it across many spans.
func (r *SpanRunner) Run(sp Span) ([]lockstep.Outcome, SpanStats, error) {
	if sp.Lo < 0 || sp.Lo >= sp.Hi || sp.Hi > len(r.en.plan) {
		return nil, SpanStats{}, fmt.Errorf("inject: span [%d,%d) outside plan of %d", sp.Lo, sp.Hi, len(r.en.plan))
	}
	idxs := make([]int, sp.Hi-sp.Lo)
	for i := range idxs {
		idxs[i] = sp.Lo + i
	}
	outcomes := make([]lockstep.Outcome, len(idxs))
	st, err := r.en.resolve(idxs, func(idx int, out lockstep.Outcome) { outcomes[idx-sp.Lo] = out })
	if err != nil {
		return nil, st.SpanStats, err
	}
	return outcomes, st.SpanStats, nil
}
