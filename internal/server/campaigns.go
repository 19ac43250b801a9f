package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lockstep/internal/atomicfile"
	"lockstep/internal/core"
	"lockstep/internal/dataset"
	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
)

// maxCampaignBody bounds a campaign submission body.
const maxCampaignBody = 1 << 16

// campaignRequest is the POST /v1/campaigns body: the schedule-relevant
// subset of inject.Config (zero values take the campaign defaults), plus
// execution knobs that do not affect the resulting dataset.
type campaignRequest struct {
	Kernels               []string `json:"kernels,omitempty"`
	RunCycles             int      `json:"run_cycles,omitempty"`
	Intervals             int      `json:"intervals,omitempty"`
	InjectionsPerFlopKind int      `json:"injections_per_flop_kind,omitempty"`
	FlopStride            int      `json:"flop_stride,omitempty"`
	Kinds                 []string `json:"kinds,omitempty"`
	StopLatency           int      `json:"stop_latency,omitempty"`
	Seed                  int64    `json:"seed,omitempty"`
	// Mode is the lockstep organization the campaign runs under: "dcls"
	// (default), "slip:N" or "tmr". Mode is schedule-relevant — it is
	// part of the fingerprint, the job ID, the checkpoint and every
	// dataset row — so two submissions differing only in mode are two
	// jobs.
	Mode string `json:"mode,omitempty"`
	// Workers is the per-job experiment pool; clamped to the server's
	// InjectWorkers cap. Dataset bytes are identical at any value.
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery overrides how many experiments elapse between
	// checkpoint writes (0 = inject's 4096 default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// NoPrune disables static fault-equivalence pruning — the
	// differential-oracle path. The dataset is byte-identical either way,
	// but pruning is schedule-relevant for resumption (it is part of the
	// checkpoint fingerprint), so it is part of the job identity too.
	NoPrune bool `json:"no_prune,omitempty"`
	// Distribute runs the campaign as a distributed coordinator instead
	// of executing it locally: the server leases plan-index spans to
	// worker nodes over POST /v1/campaigns/{id}/leases and merges their
	// span submissions. The dataset is byte-identical to a local run, so
	// distribution is an execution knob, not part of the job identity.
	// Lease length and TTL are the server's (Options.LeaseSize and
	// LeaseTTL); a submission naming either is refused as an unknown
	// field.
	Distribute bool `json:"distribute,omitempty"`
	// Train closes the campaign→train→serve loop in one submission: when
	// the job completes, its dataset is run through the shared training
	// pipeline (train_frac 1, split seed 1 — exactly what POST /v1/tables
	// with defaults would do) and the resulting table version is
	// atomically swapped into the predict path. Like workers, training is
	// an execution knob: the dataset bytes and the job identity are
	// unchanged, and a training failure is recorded on the job
	// (train_error) without failing it.
	Train bool `json:"train,omitempty"`
	// TrainGranularity is the trained table's granularity: 7 (coarse) or
	// 13 (fine); 0 means 7.
	TrainGranularity int `json:"train_granularity,omitempty"`
	// TrainTopK limits units stored per trained table entry (0 = all).
	TrainTopK int `json:"train_topk,omitempty"`
}

// faultKinds maps the wire names onto lockstep fault kinds using the
// kinds' own String() names, so the two can never drift.
func faultKinds(names []string) ([]lockstep.FaultKind, error) {
	var kinds []lockstep.FaultKind
	for _, name := range names {
		found := false
		for k := lockstep.FaultKind(0); k < lockstep.NumFaultKinds; k++ {
			if name == k.String() {
				kinds = append(kinds, k)
				found = true
				break
			}
		}
		if !found {
			var known []string
			for k := lockstep.FaultKind(0); k < lockstep.NumFaultKinds; k++ {
				known = append(known, k.String())
			}
			return nil, &inject.ConfigError{Field: "Kinds",
				Reason: fmt.Sprintf("unknown fault kind %q (known: %s)", name, strings.Join(known, ", "))}
		}
	}
	return kinds, nil
}

// parseCampaignRequest decodes and validates a campaign submission into
// a runnable inject.Config (validated via its Fingerprint, which applies
// the same normalization the campaign itself will). It is the fuzz
// surface of FuzzCampaignRequest.
func parseCampaignRequest(data []byte, maxWorkers int) (campaignRequest, inject.Config, error) {
	var req campaignRequest
	if err := decodeJSON(data, &req); err != nil {
		return req, inject.Config{}, err
	}
	kinds, err := faultKinds(req.Kinds)
	if err != nil {
		return req, inject.Config{}, configError(err)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"run_cycles", req.RunCycles}, {"intervals", req.Intervals},
		{"injections_per_flop_kind", req.InjectionsPerFlopKind},
		{"flop_stride", req.FlopStride}, {"stop_latency", req.StopLatency},
		{"workers", req.Workers}, {"checkpoint_every", req.CheckpointEvery},
		{"train_topk", req.TrainTopK},
	} {
		if f.v < 0 {
			return req, inject.Config{}, &apiError{Status: http.StatusBadRequest, Code: "invalid_config",
				Message: fmt.Sprintf("%s must be non-negative", f.name), Field: f.name}
		}
	}
	switch req.TrainGranularity {
	case 0, 7, 13:
	default:
		return req, inject.Config{}, &apiError{Status: http.StatusBadRequest, Code: "invalid_config",
			Message: fmt.Sprintf("train_granularity must be 7 or 13, not %d", req.TrainGranularity), Field: "train_granularity"}
	}
	mode, err := lockstep.ParseMode(req.Mode)
	if err != nil {
		return req, inject.Config{}, &apiError{Status: http.StatusBadRequest, Code: "invalid_config",
			Message: err.Error(), Field: "mode"}
	}
	cfg := inject.Config{
		Kernels:               req.Kernels,
		RunCycles:             req.RunCycles,
		Intervals:             req.Intervals,
		InjectionsPerFlopKind: req.InjectionsPerFlopKind,
		FlopStride:            req.FlopStride,
		Kinds:                 kinds,
		StopLatency:           req.StopLatency,
		Seed:                  req.Seed,
		Workers:               req.Workers,
		NoPrune:               req.NoPrune,
		Mode:                  mode,
	}
	if maxWorkers > 0 && (cfg.Workers == 0 || cfg.Workers > maxWorkers) {
		cfg.Workers = maxWorkers
	}
	if _, err := cfg.Fingerprint(); err != nil {
		return req, inject.Config{}, configError(err)
	}
	return req, cfg, nil
}

// jobID derives the job's identity from the campaign's schedule
// fingerprint: two submissions that would produce byte-identical
// datasets are the same job, making submission idempotent and restart
// adoption unambiguous. It is the same digest every distributed lease
// and span message carries (inject.Fingerprint.Digest), so the job ID
// doubles as the campaign's wire credential.
func jobID(cfg inject.Config) (string, error) {
	fp, err := cfg.Fingerprint()
	if err != nil {
		return "", err
	}
	return fp.Digest(), nil
}

// Job states.
const (
	stateQueued      = "queued"
	stateRunning     = "running"
	stateInterrupted = "interrupted" // drained mid-run; resumes on restart
	stateDone        = "done"
	stateFailed      = "failed"
)

// job is one campaign submission's lifecycle.
type job struct {
	ID    string
	Req   campaignRequest
	Cfg   inject.Config // schedule config; checkpoint/cancel wiring added at run time
	Total int

	mu     sync.Mutex
	state  string
	stats  inject.Stats
	errMsg string
	// trainedTable / trainErr record the outcome of a "train": true
	// job's post-completion training: the swapped-in table version, or
	// why training failed (the job itself still completes — its dataset
	// is valid either way).
	trainedTable string
	trainErr     string
	// co is a distributed job's coordinator while it runs: the lease and
	// span endpoints dispatch into it, and the job's progress is its
	// merged count.
	co *inject.Coordinator

	done atomic.Int64 // completed experiments, restored included, while co is nil
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// manifest is the on-disk record of a job (<id>.job.json in DataDir),
// written atomically at submission and terminal transitions. Jobs whose
// manifest says queued (including drained ones) are re-queued when a
// server adopts the directory.
type manifest struct {
	ID           string          `json:"id"`
	Request      campaignRequest `json:"request"`
	Total        int             `json:"total"`
	State        string          `json:"state"` // queued | done | failed
	Stats        *inject.Stats   `json:"stats,omitempty"`
	Error        string          `json:"error,omitempty"`
	TrainedTable string          `json:"trained_table,omitempty"`
	TrainError   string          `json:"train_error,omitempty"`
}

// jobManager owns the campaign worker pool and the DataDir layout:
// <id>.job.json (manifest), <id>.ck (checkpoint), <id>.csv (dataset).
type jobManager struct {
	dir        string
	maxWorkers int
	dist       inject.DistConfig // lease length and TTL of every distributed job
	reg        *telemetry.Registry
	// tables receives the trained-and-swapped table of a "train": true
	// job on completion.
	tables *tableManager

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing

	queue    chan *job
	cancel   chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
}

func newJobManager(opt Options, reg *telemetry.Registry, tables *tableManager) (*jobManager, error) {
	if err := os.MkdirAll(opt.DataDir, 0o755); err != nil {
		return nil, err
	}
	m := &jobManager{
		dir:        opt.DataDir,
		maxWorkers: opt.InjectWorkers,
		dist:       inject.DistConfig{LeaseSize: opt.LeaseSize, LeaseTTL: opt.LeaseTTL},
		reg:        reg,
		tables:     tables,
		jobs:       map[string]*job{},
		cancel:     make(chan struct{}),
	}
	queued, err := m.adopt()
	if err != nil {
		return nil, err
	}
	// Every unfinished job fits, however many (no worker runs yet to make
	// room); submit refuses new ones while queueDepth of them wait.
	m.queue = make(chan *job, max(queueDepth, len(queued)))
	for _, j := range queued {
		m.queue <- j
	}
	for i := 0; i < opt.CampaignWorkers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// adopt loads every persisted job from the data directory: done/failed
// jobs become visible again, queued ones (including jobs a previous
// server drained mid-run) are returned in manifest order to be re-queued
// and will resume from their checkpoint, and jobs whose request no
// longer validates are listed as failed.
func (m *jobManager) adopt() (queued []*job, err error) {
	names, err := filepath.Glob(filepath.Join(m.dir, "*.job.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var mf manifest
		if err := json.Unmarshal(data, &mf); err != nil {
			return nil, fmt.Errorf("manifest %s: %w", name, err)
		}
		_, cfg, err := parseCampaignRequest(mustJSON(mf.Request), m.maxWorkers)
		j := &job{ID: mf.ID, Req: mf.Request, Cfg: cfg, Total: mf.Total, state: mf.State}
		if mf.Stats != nil {
			j.stats = *mf.Stats
		}
		j.errMsg = mf.Error
		j.trainedTable = mf.TrainedTable
		j.trainErr = mf.TrainError
		if err != nil {
			// This build refuses the request (a bound added since it was
			// submitted), so the job can neither run nor resume here:
			// list it as failed rather than refuse to start.
			j.state, j.errMsg = stateFailed, err.Error()
		}
		switch j.state {
		case stateDone:
			j.done.Store(int64(mf.Total))
		case stateFailed:
			// terminal; kept for inspection
		default:
			j.state = stateQueued
			if ck, err := inject.ReadCheckpoint(m.ckPath(j.ID)); err == nil {
				j.done.Store(int64(ck.DoneCount()))
			}
			queued = append(queued, j)
			m.reg.Counter("server.jobs", telemetry.L("event", "adopted")).Inc()
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
	}
	return queued, nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

func (m *jobManager) ckPath(id string) string { return filepath.Join(m.dir, id+".ck") }
func (m *jobManager) dsPath(id string) string { return filepath.Join(m.dir, id+".csv") }
func (m *jobManager) mfPath(id string) string { return filepath.Join(m.dir, id+".job.json") }

// writeManifest atomically persists the job's manifest.
func (m *jobManager) writeManifest(j *job) error {
	j.mu.Lock()
	mf := manifest{ID: j.ID, Request: j.Req, Total: j.Total, State: j.state, Error: j.errMsg,
		TrainedTable: j.trainedTable, TrainError: j.trainErr}
	// Drained jobs persist as queued so a restart re-runs them.
	if mf.State == stateRunning || mf.State == stateInterrupted {
		mf.State = stateQueued
	}
	if j.state == stateDone {
		st := j.stats
		mf.Stats = &st
	}
	j.mu.Unlock()
	return atomicfile.Write(m.mfPath(j.ID), append(mustJSON(mf), '\n'))
}

// submit registers (or finds) the job for a validated config and queues
// it. Submission is idempotent: the same schedule yields the same job.
func (m *jobManager) submit(req campaignRequest, cfg inject.Config) (*job, bool, error) {
	id, err := jobID(cfg)
	if err != nil {
		return nil, false, configError(err)
	}
	total, err := cfg.Total()
	if err != nil {
		return nil, false, configError(err)
	}
	// A checkpoint already sitting at this job's path must belong to this
	// schedule: refuse the submission with the differing field (409
	// config_mismatch) instead of queueing a job that would fail — or
	// worse, resume foreign state — at run time. Unreadable checkpoints
	// keep today's behavior and surface when the job runs.
	if _, statErr := os.Stat(m.ckPath(id)); statErr == nil {
		if ck, rerr := inject.ReadCheckpoint(m.ckPath(id)); rerr == nil {
			if verr := ck.Validate(cfg, total); verr != nil {
				return nil, false, configError(verr)
			}
		}
	}
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		return j, false, nil
	}
	if m.draining.Load() {
		m.mu.Unlock()
		return nil, false, errf(http.StatusServiceUnavailable, "shutting_down", "server is draining; resubmit after restart")
	}
	if len(m.queue) >= queueDepth {
		m.mu.Unlock()
		return nil, false, errf(http.StatusTooManyRequests, "queue_full",
			"campaign queue is full (%d queued); retry later", queueDepth)
	}
	// Only submit sends after start-up, under mu, and the queue holds at
	// least queueDepth jobs: this send cannot block.
	j := &job{ID: id, Req: req, Cfg: cfg, Total: total, state: stateQueued}
	m.queue <- j
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()
	if err := m.writeManifest(j); err != nil {
		return nil, false, err
	}
	m.reg.Counter("server.jobs", telemetry.L("event", "submitted")).Inc()
	return j, true, nil
}

func (m *jobManager) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// worker executes queued jobs until drained.
func (m *jobManager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.cancel:
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one campaign job under the crash-safety machinery: always
// checkpointed (so a drain or crash loses nothing), resumed when a
// checkpoint already exists, and cancelable at an experiment boundary by
// the manager's drain signal. Distributed jobs run a lease coordinator
// instead of executing locally; either way the terminal handling — and
// the resulting dataset bytes — are identical.
func (m *jobManager) run(j *job) {
	j.setState(stateRunning)
	cfg := j.Cfg
	cfg.CheckpointPath = m.ckPath(j.ID)
	cfg.CheckpointEvery = j.Req.CheckpointEvery
	if _, err := os.Stat(cfg.CheckpointPath); err == nil {
		cfg.Resume = true
	}
	if j.Req.Distribute {
		m.runDistributed(j, cfg)
		return
	}
	cfg.Cancel = m.cancel
	total := j.Total
	cfg.Progress = func(done, pending int) {
		// done/pending cover only this run's remaining work; the
		// restored prefix is the difference to the campaign total.
		j.done.Store(int64(total - pending + done))
	}

	ds, st, err := inject.RunStats(cfg)
	m.finish(j, ds, st, err)
}

// runDistributed runs one campaign job as a lease coordinator: worker
// nodes pull span leases and push completed spans over the campaign's
// lease/span endpoints, and this server only merges and checkpoints. The
// drain signal cancels it exactly like a local job — a final checkpoint
// covers every merged span and a restart resumes the campaign.
func (m *jobManager) runDistributed(j *job, cfg inject.Config) {
	co, err := inject.NewCoordinator(cfg, m.dist)
	if err != nil {
		m.finish(j, nil, inject.Stats{}, err)
		return
	}
	j.mu.Lock()
	j.co = co
	j.mu.Unlock()
	err = co.WaitDone(m.cancel)
	// The coordinator merges nothing more: keep its count.
	done, _ := co.Progress()
	j.mu.Lock()
	j.co = nil
	j.done.Store(int64(done))
	j.mu.Unlock()
	if err != nil {
		m.finish(j, nil, co.Stats(), err)
		return
	}
	ds, st, err := co.Result()
	m.finish(j, ds, st, err)
}

// coordinator returns the job's live coordinator, nil unless it is a
// running distributed job.
func (j *job) coordinator() *inject.Coordinator {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.co
}

// finish applies one campaign run's terminal transition: interrupted
// (drained; resumes on restart), failed, or done with the dataset
// persisted atomically.
func (m *jobManager) finish(j *job, ds *dataset.Dataset, st inject.Stats, err error) {
	switch {
	case errors.Is(err, inject.ErrCanceled):
		j.mu.Lock()
		j.state = stateInterrupted
		j.stats = st
		j.mu.Unlock()
		m.reg.Counter("server.jobs", telemetry.L("event", "interrupted")).Inc()
		// Manifest already says queued; the checkpoint carries progress.
	case err != nil:
		j.mu.Lock()
		j.state = stateFailed
		j.errMsg = err.Error()
		j.mu.Unlock()
		m.writeManifest(j)
		m.reg.Counter("server.jobs", telemetry.L("event", "failed")).Inc()
	default:
		if werr := ds.WriteCSVFile(m.dsPath(j.ID)); werr != nil {
			err = werr
		}
		// Train-on-completion runs after the dataset is persisted (it
		// trains from the same CSV a client downloads) but before the
		// done manifest is written: a crash mid-train leaves the job
		// queued, so a restart resumes it from the full checkpoint,
		// re-finishes, and trains again.
		if err == nil && j.Req.Train {
			m.trainJob(j)
		}
		j.mu.Lock()
		if err != nil {
			j.state = stateFailed
			j.errMsg = err.Error()
		} else {
			j.state = stateDone
			j.stats = st
			j.done.Store(int64(j.Total))
		}
		j.mu.Unlock()
		m.writeManifest(j)
		event := "completed"
		if err != nil {
			event = "failed"
		}
		m.reg.Counter("server.jobs", telemetry.L("event", event)).Inc()
	}
}

// trainJob runs a "train": true job's post-completion training through
// the shared pipeline against the job's persisted dataset — the exact
// CSV a client downloads and lockstep-train would read offline — and
// atomically swaps the resulting version into the predict path. The
// outcome is recorded on the job: the swapped-in version, or the
// training error (the job still completes; its dataset is valid).
func (m *jobManager) trainJob(j *job) {
	gran := core.Coarse7
	if j.Req.TrainGranularity == 13 {
		gran = core.Fine13
	}
	spec := trainSpec{gran: gran, topK: j.Req.TrainTopK, frac: 1, seed: 1}
	b, err := m.tables.trainFromFile(m.dsPath(j.ID), spec, "campaign "+j.ID)
	if err == nil {
		_, err = m.tables.activate(b.version)
	}
	j.mu.Lock()
	if err != nil {
		j.trainErr = err.Error()
	} else {
		j.trainedTable = b.version
	}
	j.mu.Unlock()
	event := "trained"
	if err != nil {
		event = "train_failed"
	}
	m.reg.Counter("server.jobs", telemetry.L("event", event)).Inc()
}

// drain stops accepting work, cancels running campaigns (they write a
// final checkpoint and stop at the next experiment boundary) and waits
// for the workers to exit.
func (m *jobManager) drain(ctx context.Context) error {
	if m.draining.CompareAndSwap(false, true) {
		close(m.cancel)
	}
	doneCh := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// census counts jobs by state, for healthz.
func (m *jobManager) census() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]int{}
	for _, j := range m.jobs {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

// jobStatus is the wire form of a job.
type jobStatus struct {
	ID       string  `json:"id"`
	State    string  `json:"state"`
	Done     int64   `json:"done"`
	Total    int     `json:"total"`
	Restored int     `json:"restored,omitempty"`
	Failures int     `json:"failures,omitempty"`
	PerSec   float64 `json:"per_sec,omitempty"`
	Error    string  `json:"error,omitempty"`
	// TrainedTable / TrainError report a "train": true job's
	// post-completion training outcome.
	TrainedTable string          `json:"trained_table,omitempty"`
	TrainError   string          `json:"train_error,omitempty"`
	Request      campaignRequest `json:"request"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	done := j.done.Load()
	if j.co != nil {
		n, _ := j.co.Progress()
		done = int64(n)
	}
	return jobStatus{
		ID:           j.ID,
		State:        j.state,
		Done:         done,
		Total:        j.Total,
		Restored:     j.stats.Restored,
		Failures:     j.stats.Failures,
		PerSec:       j.stats.PerSec,
		Error:        j.errMsg,
		TrainedTable: j.trainedTable,
		TrainError:   j.trainErr,
		Request:      j.Req,
	}
}

// ---- HTTP handlers -------------------------------------------------------

// requireJobs gates the campaign API on a configured data directory.
func (s *Server) requireJobs() (*jobManager, error) {
	if s.jobs == nil {
		return nil, errf(http.StatusServiceUnavailable, "campaigns_disabled",
			"campaign API disabled (start lockstep-serve with -data)")
	}
	return s.jobs, nil
}

// handleCampaignSubmit serves POST /v1/campaigns.
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) error {
	m, err := s.requireJobs()
	if err != nil {
		return err
	}
	body, err := readBody(w, r, maxCampaignBody)
	if err != nil {
		return err
	}
	req, cfg, err := parseCampaignRequest(body, m.maxWorkers)
	if err != nil {
		return err
	}
	j, created, err := m.submit(req, cfg)
	if err != nil {
		return err
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, j.status())
	return nil
}

// handleCampaignList serves GET /v1/campaigns.
func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) error {
	m, err := s.requireJobs()
	if err != nil {
		return err
	}
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := struct {
		Campaigns []jobStatus `json:"campaigns"`
	}{Campaigns: make([]jobStatus, 0, len(jobs))}
	for _, j := range jobs {
		out.Campaigns = append(out.Campaigns, j.status())
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// lookupJob resolves the {id} path segment.
func (s *Server) lookupJob(r *http.Request) (*job, error) {
	m, err := s.requireJobs()
	if err != nil {
		return nil, err
	}
	id := r.PathValue("id")
	j := m.get(id)
	if j == nil {
		return nil, &apiError{Status: http.StatusNotFound, Code: "unknown_job",
			Message: fmt.Sprintf("no campaign job %q", id), Field: "id"}
	}
	return j, nil
}

// handleCampaignStatus serves GET /v1/campaigns/{id}.
func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) error {
	j, err := s.lookupJob(r)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, j.status())
	return nil
}

// handleCampaignDataset serves GET /v1/campaigns/{id}/dataset: the full
// CSV once the job is done, or — with ?partial=1 — the completed prefix
// recovered from the job's latest checkpoint while it is still running,
// so long campaigns stream results incrementally.
func (s *Server) handleCampaignDataset(w http.ResponseWriter, r *http.Request) error {
	j, err := s.lookupJob(r)
	if err != nil {
		return err
	}
	st := j.status()
	if st.State == stateDone {
		f, err := os.Open(s.jobs.dsPath(j.ID))
		if err != nil {
			return errf(http.StatusInternalServerError, "dataset_missing", "job is done but its dataset is unreadable: %v", err)
		}
		defer f.Close()
		w.Header().Set("Content-Type", "text/csv")
		_, err = io.Copy(w, f)
		return err
	}
	if r.URL.Query().Get("partial") == "" {
		return &apiError{Status: http.StatusConflict, Code: "not_done",
			Message: fmt.Sprintf("job is %s (%d/%d experiments); pass ?partial=1 for the completed prefix", st.State, st.Done, st.Total)}
	}
	partial := &dataset.Dataset{}
	if ck, err := inject.ReadCheckpoint(s.jobs.ckPath(j.ID)); err == nil {
		partial.Records = ck.Records
	}
	w.Header().Set("Content-Type", "text/csv")
	return partial.WriteCSV(w)
}
