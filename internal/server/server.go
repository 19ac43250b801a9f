// Package server turns the offline lockstep tooling into a long-running
// HTTP service: lockstep-serve. It exposes
//
//   - POST /v1/predict — the paper's online use of the trained prediction
//     table: a DSR snapshot (single or batched) latched at error
//     detection is mapped through the PTAR address-mapping to a
//     predicted unit test order and a soft/hard verdict, exactly as the
//     offline error handler would (internal/handler.Predict);
//   - POST /v1/campaigns, GET /v1/campaigns[/{id}[/dataset]] — a
//     campaign job API that runs inject.Run fault-injection campaigns on
//     a bounded worker pool, checkpointed with the internal/inject crash
//     machinery so in-flight jobs survive server restarts and partial
//     results are downloadable while a job runs;
//   - GET /healthz, GET /v1/metrics — liveness and the telemetry
//     registry snapshot.
//
// Production hygiene is built in: a concurrency limiter answering 429
// when full, per-request deadlines answering 504, structured JSON errors
// with stable codes, request/latency/in-flight metrics in the telemetry
// registry, and graceful shutdown — Drain cancels running campaigns at a
// checkpoint boundary so a restarted server resumes them with
// byte-identical final datasets. The `lockstep-inject -distribute`
// coordinator is a Server too (NewDistributor), with only the lease,
// span and status routes: Server.handle and Server.ServeHTTP are the
// one edge both hosts go through.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lockstep/internal/core"
	"lockstep/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Table is the prediction table /v1/predict serves at startup; it
	// becomes the first registered table version. nil starts the server
	// with no active table (503 table_not_loaded) until one is trained
	// via POST /v1/tables or adopted from DataDir; the campaign API stays
	// available either way.
	Table *core.Table
	// DataDir is where campaign jobs persist their manifest, checkpoint
	// and dataset. Required for the campaign API; jobs found in it at
	// startup are adopted (completed ones become downloadable, unfinished
	// ones are re-queued and resumed from their checkpoint).
	DataDir string
	// CampaignWorkers is how many campaign jobs run concurrently
	// (default 1; additional submissions queue).
	CampaignWorkers int
	// InjectWorkers caps the per-job experiment worker pool (default and
	// upper bound: the request's workers field is clamped to it; 0 means
	// runtime.NumCPU via inject's own default).
	InjectWorkers int
	// MaxInFlight bounds concurrent HTTP requests (default 64); excess
	// requests are answered 429 overloaded immediately instead of
	// queueing.
	MaxInFlight int
	// RequestTimeout is the per-request deadline (default 10s); an
	// expired deadline answers 504 deadline_exceeded. It bounds the
	// request body's read too.
	RequestTimeout time.Duration
	// MaxBatch bounds the DSR count of one predict request (default
	// 1024); larger batches are answered 413 batch_too_large.
	MaxBatch int
	// LeaseSize is the span length (in plan indices) of every
	// distributed-campaign lease (0 = inject's 512); only the operator
	// sets it, no submission can.
	LeaseSize int
	// LeaseTTL is how long a worker holds an uncommitted span lease
	// before the coordinator re-issues it (0 = inject's 30s).
	LeaseTTL time.Duration
	// Registry receives the server's metrics (default telemetry.Default).
	Registry *telemetry.Registry
}

// queueDepth bounds the campaign job queue; a submission to a full queue
// is answered 429 queue_full.
const queueDepth = 256

func (o *Options) normalize() {
	if o.CampaignWorkers <= 0 {
		o.CampaignWorkers = 1
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default
	}
}

// Server is the lockstep prediction & campaign service. It implements
// http.Handler; the caller owns the listener and the http.Server, which
// NewHTTPServer builds.
type Server struct {
	opt  Options
	reg  *telemetry.Registry
	mux  *http.ServeMux
	jobs *jobManager

	limiter   chan struct{}
	inFlight  *telemetry.Gauge
	throttled *telemetry.Counter

	// tables owns the registry of immutable table bundles and the
	// atomic.Pointer the predict path serves from; predictions/
	// predictBatch are the predict metric handles, hoisted out of the
	// hot path.
	tables       *tableManager
	predictions  *telemetry.Counter
	predictBatch *telemetry.Histogram

	// testHold, when non-nil, blocks every request after it has claimed
	// its limiter slot — tests use it to fill the limiter determin-
	// istically and assert the 429 path.
	testHold <-chan struct{}
}

// newServer builds the HTTP edge every route goes through — the mux,
// the concurrency limiter and its metric handles — with no route yet.
func newServer(opt Options) *Server {
	opt.normalize()
	return &Server{
		opt:       opt,
		reg:       opt.Registry,
		mux:       http.NewServeMux(),
		limiter:   make(chan struct{}, opt.MaxInFlight),
		inFlight:  opt.Registry.Gauge("server.in_flight"),
		throttled: opt.Registry.Counter("server.throttled"),
	}
}

// New builds the service and adopts any campaign jobs already persisted
// in Options.DataDir: finished jobs become downloadable again and
// unfinished ones are re-queued, resuming from their checkpoint.
func New(opt Options) (*Server, error) {
	s := newServer(opt)
	s.predictions = s.reg.Counter("server.predictions")
	s.predictBatch = s.reg.Histogram("server.predict_batch", telemetry.PopBuckets)
	tables, err := newTableManager(s.opt)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.tables = tables
	if s.opt.DataDir != "" {
		jobs, err := newJobManager(s.opt, s.reg, tables)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.jobs = jobs
	}
	s.handle("POST /v1/predict", "predict", s.handlePredict)
	s.handle("POST /v1/campaigns", "campaign-submit", s.handleCampaignSubmit)
	s.handle("GET /v1/campaigns", "campaign-list", s.handleCampaignList)
	s.handle("GET /v1/campaigns/{id}", "campaign-status", s.handleCampaignStatus)
	s.handle("GET /v1/campaigns/{id}/dataset", "campaign-dataset", s.handleCampaignDataset)
	s.handle("POST /v1/campaigns/{id}/leases", "campaign-lease", s.handleCampaignLease)
	s.handle("POST /v1/campaigns/{id}/spans", "campaign-span", s.handleCampaignSpan)
	s.handle("POST /v1/tables", "tables-create", s.handleTablesCreate)
	s.handle("GET /v1/tables", "tables-list", s.handleTablesList)
	s.handle("POST /v1/tables/{version}/activate", "tables-activate", s.handleTableActivate)
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /v1/metrics", "metrics", s.handleMetrics)
	return s, nil
}

// endpoint is the internal shape every route implements: return nil
// after writing a success response, or an error (usually *apiError) to
// be rendered as the structured JSON envelope.
type endpoint func(w http.ResponseWriter, r *http.Request) error

// handle registers a route with the per-route middleware: deadline
// pre-check, error envelope rendering, and request/latency metrics
// labeled by route and status.
func (s *Server) handle(pattern, route string, h endpoint) {
	requests := func(code int) *telemetry.Counter {
		return s.reg.Counter("server.requests",
			telemetry.L("route", route), telemetry.L("status", strconv.Itoa(code)))
	}
	latency := s.reg.Histogram("server.latency_us", telemetry.CycleBuckets,
		telemetry.L("route", route))
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		err := deadlineErr(r.Context())
		if err == nil {
			err = h(sw, r)
		}
		if err != nil {
			writeError(sw, err)
		}
		requests(sw.code).Inc()
		latency.Observe(time.Since(start).Microseconds())
	})
}

// deadlineErr maps an expired request context onto the 504 the API
// promises. Handlers also call it inside long loops (e.g. per batched
// DSR) so a request cannot overstay its deadline by doing work.
func deadlineErr(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return errf(http.StatusGatewayTimeout, "deadline_exceeded", "request deadline exceeded")
	default:
		return errf(499, "client_closed_request", "client closed request")
	}
}

// ServeHTTP applies the service-wide middleware — concurrency limiter
// (immediate 429 when full), in-flight accounting, per-request deadline —
// and dispatches to the routed endpoint.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case s.limiter <- struct{}{}:
	default:
		s.throttled.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, errf(http.StatusTooManyRequests, "overloaded",
			"server at its concurrency limit (%d in flight); retry", cap(s.limiter)))
		return
	}
	defer func() { <-s.limiter }()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if s.testHold != nil {
		<-s.testHold
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
	defer cancel()
	if r.ContentLength != 0 {
		// The deadline also ends the body read, so a client that trickles
		// its body cannot hold a limiter slot past it. net/http clears the
		// read deadline once the body is read to its end. A request
		// without a body is left alone: its connection's background read
		// is already waiting, and a deadline on it would cancel every later
		// request on the connection once it fired.
		deadline, _ := ctx.Deadline()
		http.NewResponseController(w).SetReadDeadline(deadline)
	}
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

const (
	// readHeaderTimeout bounds how long a connection may take to send its
	// request line and headers. The concurrency limiter only sees a
	// request once its headers are parsed, so without this bound a client
	// that never finishes its headers holds a connection forever.
	readHeaderTimeout = 5 * time.Second
	// idleTimeout closes a keep-alive connection that sends no further
	// request for this long.
	idleTimeout = 2 * time.Minute
)

// NewHTTPServer returns the http.Server that serves h on a listener:
// the Server of lockstep-serve or the one NewDistributor builds for the
// lockstep-inject -distribute coordinator. It bounds only header reads
// and idle keep-alive time, so a large dataset download or span upload
// is not cut off; the Server bounds each body read by its request
// deadline.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Drain gracefully stops the campaign machinery: running jobs are
// canceled at the next experiment boundary and write a final checkpoint,
// queued jobs stay queued on disk, and no new submissions are accepted.
// A server restarted on the same DataDir resumes all of them. Drain
// returns once every job worker has stopped or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.drain(ctx)
}

// healthzTable is the serving-table summary healthz carries, so an
// operator can verify which table version is live without a second call.
type healthzTable struct {
	Version     string `json:"version"`
	Granularity string `json:"granularity"`
	Sets        int    `json:"sets"`
	Swaps       int64  `json:"swaps"`
}

// handleHealthz reports liveness plus a one-line job census and the live
// table version (absent until a table has been activated).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	resp := struct {
		OK    bool           `json:"ok"`
		Jobs  map[string]int `json:"jobs,omitempty"`
		Table *healthzTable  `json:"table,omitempty"`
	}{OK: true}
	if s.jobs != nil {
		resp.Jobs = s.jobs.census()
	}
	if b := s.tables.current(); b != nil {
		resp.Table = &healthzTable{
			Version:     b.version,
			Granularity: b.table.Gran.String(),
			Sets:        b.table.Dict.Len(),
			Swaps:       s.tables.swaps.Value(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleMetrics dumps the telemetry registry snapshot — the same JSON
// the campaign CLIs write via -metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "application/json")
	return s.reg.WriteJSON(w)
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}
