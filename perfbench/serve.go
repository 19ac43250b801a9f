package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lockstep/internal/core"
	"lockstep/internal/dataset"
	"lockstep/internal/loadgen"
	"lockstep/internal/server"
)

const (
	// setupRepeats is how many times a serve stage sets a server up; the
	// first warms the process up and the median of the rest is setup_s.
	setupRepeats = 11
	// warmup is the checked but unmeasured closed loop before measuring.
	warmup = 500 * time.Millisecond
	// window is the target length of one measurement window. Latency
	// percentiles and CPU per request are taken per window and reported as
	// the median over windows, so a burst of load from another tenant of
	// the host moves one window rather than the result.
	window = time.Second
	// spanHeader and traceHeader carry a traced request's span and
	// sequence number to the server-side span wrapper.
	spanHeader  = "X-Bench-Span"
	traceHeader = "X-Bench-Trace"
	// failedLatency is what a failed or refused request counts as in the
	// latency percentiles: loadgen's whole request timeout, past any limit.
	failedLatency = 10 * time.Second
)

// bodiesPerClient sizes each client's request schedule, which the client
// cycles through; every body's in-process answer is kept for the byte
// comparison.
func bodiesPerClient(batch int) int {
	if batch > 1 {
		return 64
	}
	return 2048
}

// serveInput is everything a serve stage sends, generated before any
// timing from the workload seed and the campaign stage's dataset.
type serveInput struct {
	csv    []byte
	ds     *dataset.Dataset
	upload []byte // POST /v1/tables body
	ctrl   loadgen.Control
	bodies [][][]byte // per client
}

func loadServeInput(w workloadSpec, seed int64, dir string) (*serveInput, error) {
	in := &serveInput{}
	var err error
	if in.csv, err = os.ReadFile(filepath.Join(dir, datasetFile)); err != nil {
		return nil, err
	}
	if in.ds, err = dataset.ReadCSV(bytes.NewReader(in.csv)); err != nil {
		return nil, err
	}
	if in.upload, err = json.Marshal(map[string]string{"dataset_csv": string(in.csv)}); err != nil {
		return nil, err
	}
	// loadgen's default mix: half trained sets, half unknown, half in hex.
	in.ctrl = loadgen.Control{
		Clients:   runtime.NumCPU(),
		Requests:  bodiesPerClient(w.batch),
		Batch:     w.batch,
		HexProb:   0.5,
		KnownProb: 0.5,
		Seed:      seed,
		Known:     knownDSRs(in.ds),
	}
	in.bodies = make([][][]byte, in.ctrl.Clients)
	for c := range in.bodies {
		in.bodies[c] = in.ctrl.Bodies(c)
	}
	return in, nil
}

// knownDSRs is the trained population: the distinct DSRs of detected
// experiments, ascending.
func knownDSRs(ds *dataset.Dataset) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, r := range ds.Manifested().Records {
		if !seen[r.DSR] {
			seen[r.DSR] = true
			out = append(out, r.DSR)
		}
	}
	slices.Sort(out)
	return out
}

// liveServer is an in-process lockstep-serve on a loopback listener.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	etag   string
	sets   int
	setup  time.Duration
	phases [3]time.Duration // server.New, POST /v1/tables, first predict
}

// startServer times one set-up: server.New on an empty data directory,
// POST /v1/tables with the dataset upload (parse, train, dense render,
// persist, activate), then the first 200 from /v1/predict. wrap, when
// non-nil, wraps the server's handler.
func startServer(rep *stageReport, dir string, upload, probe []byte, wrap func(http.Handler) http.Handler) (*liveServer, error) {
	dataDir, err := os.MkdirTemp(dir, "data-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()

	t0 := time.Now()
	l.srv, err = server.New(server.Options{DataDir: dataDir})
	if err != nil {
		ln.Close()
		return nil, err
	}
	t1 := time.Now()
	var h http.Handler = l.srv
	if wrap != nil {
		h = wrap(h)
	}
	l.hs = &http.Server{Handler: h}
	go func() { l.served <- l.hs.Serve(ln) }()

	var body bytes.Buffer
	status, _, err := send(hc, l.url+"/v1/tables", upload, nil, &body)
	t2 := time.Now()
	if err != nil {
		l.close()
		return nil, fmt.Errorf("POST /v1/tables: %w", err)
	}
	var created struct {
		Table struct {
			Version string `json:"version"`
			Sets    int    `json:"sets"`
		} `json:"table"`
	}
	if status != http.StatusCreated || json.Unmarshal(body.Bytes(), &created) != nil || created.Table.Version == "" {
		l.close()
		return nil, fmt.Errorf("POST /v1/tables answered %d: %.200s", status, body.Bytes())
	}
	l.etag = `"` + created.Table.Version + `"`
	l.sets = created.Table.Sets

	status, etag, err := send(hc, l.url+"/v1/predict", probe, nil, &body)
	l.setup = time.Since(t0)
	l.phases = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), l.setup - t2.Sub(t0)}
	if err != nil {
		l.close()
		return nil, fmt.Errorf("first predict: %w", err)
	}
	rep.checkf("set-up", status == http.StatusOK && etag == l.etag,
		"first predict answered %d with ETag %s, want 200 with %s: %.200s", status, etag, l.etag, body.Bytes())
	return l, nil
}

func (l *liveServer) close() error {
	err := l.hs.Close()
	<-l.served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if derr := l.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// inProcess answers body through Server.ServeHTTP without a socket.
func inProcess(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

// failedMark stands in a client log for a request that failed or was
// refused.
const failedMark = math.MaxUint32

// clientLog is one client's requests in completion order: each latency in
// nanoseconds (or failedMark), and the index of the first request that
// completed in each window. Its buffer is allocated before the loop, so
// the harness's heap, and with it the GC pacing of the server that shares
// the process, stays the same while measuring.
type clientLog struct {
	lat      []uint32
	starts   []int
	non200   int
	problems []string
}

func latency(v uint32) time.Duration {
	if v == failedMark {
		return failedLatency
	}
	return time.Duration(v)
}

// cpuMark is the process CPU time (user+sys) and the host's steal time
// at a window boundary.
type cpuMark struct {
	at, cpu, steal time.Duration
}

type loopResult struct {
	dur     time.Duration
	clients []clientLog
	marks   []cpuMark // one per window boundary
}

// windowStats is one window's latency percentiles (a failed request
// counts as slower than any limit) and CPU per completed request.
type windowStats struct {
	p50, p95, cpuPerReq time.Duration
	steal               float64 // share of the host's CPU time stolen
}

func (lr loopResult) windows() []windowStats {
	var out []windowStats
	for k := 0; k+1 < len(lr.marks); k++ {
		var lat []int64
		for _, c := range lr.clients {
			lo, hi := len(c.lat), len(c.lat)
			if k < len(c.starts) {
				lo = c.starts[k]
			}
			if k+1 < len(c.starts) {
				hi = c.starts[k+1]
			}
			for _, v := range c.lat[lo:hi] {
				lat = append(lat, int64(latency(v)))
			}
		}
		if len(lat) == 0 {
			continue
		}
		lo, hi := lr.marks[k], lr.marks[k+1]
		slices.Sort(lat)
		out = append(out, windowStats{
			p50:       time.Duration(loadgen.Percentile(lat, 50)),
			p95:       time.Duration(loadgen.Percentile(lat, 95)),
			cpuPerReq: (hi.cpu - lo.cpu) / time.Duration(len(lat)),
			steal:     stealShare(hi.steal-lo.steal, hi.at-lo.at),
		})
	}
	return out
}

// pooled returns every latency of the loop in nanoseconds, sorted.
func (lr loopResult) pooled() []int64 {
	var lat []int64
	for _, c := range lr.clients {
		for _, v := range c.lat {
			lat = append(lat, int64(latency(v)))
		}
	}
	slices.Sort(lat)
	return lat
}

// counts returns the requests the loop made and how many failed.
func (lr loopResult) counts() (n, failed int) {
	for _, c := range lr.clients {
		n += len(c.lat)
		for _, v := range c.lat {
			if v == failedMark {
				failed++
			}
		}
	}
	return n, failed
}

// summary is the loop's end-to-end figures: medians over windows.
func (lr loopResult) summary() (p50, p95, cpu time.Duration) {
	var a, b, c []float64
	for _, w := range lr.windows() {
		a = append(a, float64(w.p50))
		b = append(b, float64(w.p95))
		c = append(c, float64(w.cpuPerReq))
	}
	return time.Duration(median(a)), time.Duration(median(b)), time.Duration(median(c))
}

// hostSteal is the time the hypervisor ran something else on this
// machine's CPUs since boot, from /proc/stat (0 where unavailable).
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100
}

// stealShare is stolen time as a share of all CPUs over elapsed.
func stealShare(stolen, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(stolen) / float64(elapsed) / float64(runtime.NumCPU())
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkFunc judges one answer to client c's k-th body.
type checkFunc func(c, k, status int, etag string, body []byte) []string

// closedLoop runs one client per schedule against url for dur: each
// client sends its next body only after the previous answer has been read
// in full and checked, cycling through its schedule. With tr set, each
// request is a client.request span whose id travels in a header so the
// server-side wrapper can add its child span.
func closedLoop(hc *http.Client, url string, bodies [][][]byte, check checkFunc, dur time.Duration, tr *tracer, seq *atomic.Int64) loopResult {
	n := max(1, int((dur+window/2)/window))
	step := dur / time.Duration(n)
	lr := loopResult{dur: dur, clients: make([]clientLog, len(bodies))}
	for c := range lr.clients {
		// No request completes in under 20 µs on loopback.
		lr.clients[c].lat = make([]uint32, 0, dur/(20*time.Microsecond))
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k <= n; k++ {
			if d := time.Duration(k)*step - time.Since(t0); d > 0 {
				time.Sleep(d)
			}
			lr.marks = append(lr.marks, cpuMark{at: time.Since(t0), cpu: processCPU(), steal: hostSteal()})
		}
	}()
	for c := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &lr.clients[c]
			var buf bytes.Buffer
			hdr := map[string]string{}
			for i := 0; time.Since(t0) < dur; i++ {
				k := i % len(bodies[c])
				var sp span
				if tr != nil {
					id := seq.Add(1)
					sp = tr.start("client.request", 0, id)
					hdr[spanHeader] = strconv.FormatInt(sp.ID, 10)
					hdr[traceHeader] = strconv.FormatInt(id, 10)
				}
				start := time.Now()
				status, etag, err := send(hc, url, bodies[c][k], hdr, &buf)
				lat := time.Since(start)
				if tr != nil {
					tr.end(sp, 1)
				}
				var problems []string
				if err != nil {
					problems = []string{err.Error()}
				} else {
					if status != http.StatusOK {
						cl.non200++
					}
					problems = check(c, k, status, etag, buf.Bytes())
				}
				v := uint32(min(lat, failedMark-1))
				if len(problems) > 0 {
					v = failedMark
					if len(cl.problems) < 5 {
						cl.problems = append(cl.problems, problems...)
					}
				}
				for w := int(time.Since(t0) / step); len(cl.starts) <= w; {
					cl.starts = append(cl.starts, len(cl.lat))
				}
				cl.lat = append(cl.lat, v)
			}
		}()
	}
	wg.Wait()
	return lr
}

// send posts a JSON body and reads the whole answer into buf.
func send(hc *http.Client, url string, body []byte, hdr map[string]string, buf *bytes.Buffer) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("ETag"), err
}

// record folds a loop's checks into the report: one operation per request.
func (r *stageReport) record(op string, lr loopResult) {
	n, failed := lr.counts()
	r.Attempted += n - failed
	var problems []string
	for _, c := range lr.clients {
		problems = append(problems, c.problems...)
	}
	for i := 0; i < failed; i++ {
		p := "answer refused or wrong"
		if i < len(problems) {
			p = problems[i]
		}
		r.check(op, []string{p})
	}
}

// serveStage measures the serve half of a workload: set-up, then a closed
// predict loop with one client per CPU, every answer checked against its
// in-process ServeHTTP reference.
func serveStage(w workloadSpec, seed int64, budget time.Duration, dir string, tr *tracer, wrap func(http.Handler) http.Handler) (*stageReport, error) {
	start := time.Now()
	rep := newReport()
	in, err := loadServeInput(w, seed, dir)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		inner := wrap
		wrap = func(h http.Handler) http.Handler {
			if inner != nil {
				h = inner(h)
			}
			return tracingHandler(tr, h)
		}
	}

	var setups []float64
	var phases [3][]float64
	var live *liveServer
	for i := 0; i < setupRepeats; i++ {
		if live != nil {
			if err := live.close(); err != nil {
				return nil, err
			}
		}
		if live, err = startServer(rep, dir, in.upload, in.bodies[0][0], wrap); err != nil {
			return nil, err
		}
		if i == 0 {
			continue
		}
		setups = append(setups, live.setup.Seconds())
		for p := range phases {
			phases[p] = append(phases[p], millis(live.phases[p]))
		}
	}
	defer live.close()
	rep.set("serve_setup_s", median(setups), "s")
	rep.Info["serve_setup_s_runs"] = setups
	rep.Info["serve_setup_phases_ms"] = phases

	// The reference answer to every body, in process and without a socket.
	ref := make([][][]byte, len(in.bodies))
	for c, bs := range in.bodies {
		ref[c] = make([][]byte, len(bs))
		for k, b := range bs {
			ref[c][k] = inProcess(live.srv, b).Body.Bytes()
		}
	}
	check := func(c, k, status int, etag string, body []byte) []string {
		var p []string
		if status != http.StatusOK {
			p = append(p, fmt.Sprintf("status %d: %.120s", status, body))
		} else if etag != live.etag {
			p = append(p, fmt.Sprintf("ETag %s, table version %s", etag, live.etag))
		} else if !bytes.Equal(body, ref[c][k]) {
			p = append(p, fmt.Sprintf("answer differs from in-process ServeHTTP (%d vs %d bytes)", len(body), len(ref[c][k])))
		}
		return p
	}

	hc := in.ctrl.NewClient()
	defer hc.CloseIdleConnections()
	rep.record("predict", closedLoop(hc, live.url+"/v1/predict", in.bodies, check, warmup, nil, nil))

	measure := budget - time.Since(start)
	if tr != nil {
		measure /= 2
	}
	measure = max(measure, time.Second)
	lr := closedLoop(hc, live.url+"/v1/predict", in.bodies, check, measure, nil, nil)
	rep.record("predict", lr)
	p50, p95, cpu := lr.summary()
	rep.set("predict_p50_ms", millis(p50), "ms")
	rep.set("predict_p95_ms", millis(p95), "ms")
	rep.set("predict_cpu_us_per_req", micros(cpu), "us")
	all := lr.pooled()
	rep.Info["predict_samples"] = len(all)
	var wins [][4]float64
	for _, w := range lr.windows() {
		wins = append(wins, [4]float64{millis(w.p50), millis(w.p95), micros(w.cpuPerReq), w.steal})
	}
	rep.Info["predict_windows_p50_p95_cpu_steal"] = wins
	rep.Info["predict_pooled_p95_ms"] = millis(time.Duration(loadgen.Percentile(all, 95)))
	if tr == nil {
		return rep, nil
	}

	n, failed := lr.counts()
	rep.set("client.req_per_s", float64(n-failed)/lr.dur.Seconds(), "1/s")
	rep.set("client.p99_ms", millis(time.Duration(loadgen.Percentile(all, 99))), "ms")
	rep.set("client.samples", float64(len(all)), "count")
	non200 := 0
	for _, c := range lr.clients {
		non200 += c.non200
	}
	rep.set("server.non200", float64(non200), "count")
	rep.set("server.new_ms", median(phases[0]), "ms")
	rep.set("server.tables_create_ms", median(phases[1]), "ms")
	if err := traceServe(rep, in, live, ref, check, hc, tr, p50); err != nil {
		return nil, err
	}
	return rep, nil
}

// tracingHandler records a server.handler span, child of the client's
// request span, around every traced request.
func tracingHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		trace, _ := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
		sp := tr.start("server.handler", parent, trace)
		h.ServeHTTP(w, r)
		tr.end(sp, 1)
	})
}

// traceServe measures the serve layers one by one, then runs the same
// closed loop traced and against a no-op handler.
func traceServe(rep *stageReport, in *serveInput, live *liveServer, ref [][][]byte, check checkFunc,
	hc *http.Client, tr *tracer, untracedP50 time.Duration) error {
	// dataset: parse the training upload.
	var reads []float64
	for i := 0; i < 3; i++ {
		sp := tr.start("dataset.read_csv", 0, 0)
		ds, err := dataset.ReadCSV(bytes.NewReader(in.csv))
		sp = tr.end(sp, 1)
		if err != nil {
			return err
		}
		rep.checkf("read training upload", ds.Len() == in.ds.Len(), "read %d records, want %d", ds.Len(), in.ds.Len())
		reads = append(reads, millis(sp.dur()))
	}
	rep.set("dataset.read_csv_ms", median(reads), "ms")

	// core: train as POST /v1/tables does by default (seed 1, every
	// record, coarse units, every unit kept).
	var trains []float64
	var table *core.Table
	for i := 0; i < 3; i++ {
		sp := tr.start("core.train", 0, 0)
		table, _, _ = core.TrainSplit(in.ds, rand.New(rand.NewSource(1)), core.Coarse7, 0, 1)
		sp = tr.end(sp, 1)
		trains = append(trains, millis(sp.dur()))
	}
	rep.set("core.train_ms", median(trains), "ms")
	rep.set("core.table_sets", float64(table.Dict.Len()), "count")
	rep.checkf("training parity", table.Dict.Len() == live.sets,
		"core.TrainSplit learned %d sets, the server %d", table.Dict.Len(), live.sets)

	var dsrs []uint64
	for _, bs := range in.bodies {
		for _, b := range bs {
			v, err := bodyDSRs(b)
			if err != nil {
				return err
			}
			dsrs = append(dsrs, v...)
		}
	}
	calls, sp := 0, tr.start("core.predict", 0, 0)
	for calls == 0 || time.Duration(tr.now()-sp.Start) < 50*time.Millisecond {
		for _, d := range dsrs {
			predictSink = table.Predict(d)
		}
		calls += len(dsrs)
	}
	sp = tr.end(sp, calls)
	rep.set("core.predict_ns", float64(sp.dur())/float64(calls), "ns")

	// server: the handler in process, then its allocations.
	var handler []int64
	for len(handler) < 4096 {
		for c, bs := range in.bodies {
			for k, b := range bs {
				sp := tr.start("server.serve_http", 0, 0)
				rec := inProcess(live.srv, b)
				sp = tr.end(sp, 1)
				rep.checkf("in-process answer", rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), ref[c][k]),
					"in-process answer changed: status %d", rec.Code)
				handler = append(handler, int64(sp.dur()))
			}
		}
	}
	slices.Sort(handler)
	hp50 := time.Duration(loadgen.Percentile(handler, 50))
	rep.set("server.handler_us_p50", micros(hp50), "us")
	rep.set("server.handler_share", float64(hp50)/float64(untracedP50), "ratio")
	allocs, err := live.srv.PredictAllocsPerRun(in.bodies[0][0])
	if err != nil {
		return err
	}
	rep.set("server.allocs_per_req", allocs, "count")

	// The same closed loop, traced.
	var seq atomic.Int64
	lr := closedLoop(hc, live.url+"/v1/predict", in.bodies, check, 1500*time.Millisecond, tr, &seq)
	rep.record("traced predict", lr)
	tp50, _, _ := lr.summary()
	rep.set("trace.predict_p50_ratio", float64(tp50)/float64(untracedP50), "ratio")

	// The client floor: same client, connections and answer size against a
	// handler that does nothing but answer.
	fixed := ref[0][0]
	floor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", live.etag)
		w.Write(fixed)
	}))
	defer floor.Close()
	fc := in.ctrl.NewClient()
	defer fc.CloseIdleConnections()
	fixedCheck := func(c, k, status int, etag string, body []byte) []string {
		return check(0, 0, status, etag, body)
	}
	closedLoop(fc, floor.URL, in.bodies, fixedCheck, warmup, nil, nil)
	fl := closedLoop(fc, floor.URL, in.bodies, fixedCheck, time.Second, nil, nil)
	rep.record("floor request", fl)
	fp50, _, fcpu := fl.summary()
	rep.set("client.floor_us_p50", micros(fp50), "us")
	rep.set("client.floor_cpu_us_per_req", micros(fcpu), "us")
	return nil
}

var predictSink core.Prediction

// bodyDSRs decodes the DSR values of one predict body: a hex string or a
// decimal number, as /v1/predict reads them.
func bodyDSRs(body []byte) ([]uint64, error) {
	var req struct {
		DSR  json.RawMessage   `json:"dsr"`
		DSRs []json.RawMessage `json:"dsrs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	raws := req.DSRs
	if req.DSR != nil {
		raws = []json.RawMessage{req.DSR}
	}
	out := make([]uint64, 0, len(raws))
	for _, raw := range raws {
		var v uint64
		var err error
		if len(raw) > 0 && raw[0] == '"' {
			var s string
			if err = json.Unmarshal(raw, &s); err == nil {
				v, err = strconv.ParseUint(s, 16, 64)
			}
		} else {
			v, err = strconv.ParseUint(string(raw), 10, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("predict body value %s: %w", raw, err)
		}
		out = append(out, v)
	}
	return out, nil
}
