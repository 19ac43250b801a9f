// Package loadgen generates deterministic prediction-request load for
// a lockstep-serve instance.
//
// A Control describes one load shape — client count, requests per
// client, batch size, hex/numeric encoding mix, known/unknown DSR mix,
// and an RNG seed. Request bodies are a pure function of (Control,
// client index): the same Control always produces byte-identical
// bodies, so the serve workloads of the benchmark (perfbench) send the
// same input at every commit. TestBodiesGolden pins those bytes.
//
// Bodies builds a client's schedule up front; Run plays every client's
// schedule concurrently against a base URL and folds the per-request
// latencies into nearest-rank percentiles and throughput.
package loadgen

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// predictPath is the endpoint every request is posted to.
	predictPath = "/v1/predict"
	// requestTimeout bounds one HTTP request.
	requestTimeout = 10 * time.Second
)

// Control is one load run's shape. The zero value is normalized to a
// minimal single-client, single-request probe.
type Control struct {
	// Clients is the number of concurrent clients (default 1).
	Clients int
	// Requests is how many requests each client issues (default 1).
	Requests int
	// Batch is the DSR count per request: 1 sends {"dsr":...}, larger
	// values send {"dsrs":[...]} (default 1).
	Batch int
	// HexProb is the probability a DSR is rendered as a hex string
	// rather than a JSON number, clamped to [0,1] (0 = all numeric).
	HexProb float64
	// KnownProb is the probability a DSR is drawn from Known — the
	// trained population served by the dense fast path — rather than
	// uniformly from the full uint64 space, clamped to [0,1].
	KnownProb float64
	// Seed roots every client's schedule; client i derives its own
	// stream from (Seed, i).
	Seed int64
	// Known is the trained-DSR population (typically table.Dict sets).
	Known []uint64
}

// normalized returns c with defaults applied and probabilities clamped.
func (c Control) normalized() Control {
	if c.Clients < 1 {
		c.Clients = 1
	}
	if c.Requests < 1 {
		c.Requests = 1
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	c.HexProb = clamp01(c.HexProb)
	c.KnownProb = clamp01(c.KnownProb)
	return c
}

func clamp01(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// clientSeed mixes the control seed with the client index (SplitMix64
// increment) so clients draw from disjoint deterministic streams.
func (c Control) clientSeed(client int) int64 {
	return c.Seed ^ int64(uint64(client+1)*0x9e3779b97f4a7c15)
}

// Bodies returns client's full request schedule: Requests bodies of
// Batch DSRs each, every byte determined by (Control, client). Bodies
// are built up front so request generation never pollutes latency
// measurements.
func (c Control) Bodies(client int) [][]byte {
	c = c.normalized()
	rng := rand.New(rand.NewSource(c.clientSeed(client)))
	bodies := make([][]byte, c.Requests)
	var buf []byte
	for r := range bodies {
		buf = buf[:0]
		if c.Batch == 1 {
			buf = append(buf, `{"dsr":`...)
			buf = c.appendDSR(buf, rng)
			buf = append(buf, '}')
		} else {
			buf = append(buf, `{"dsrs":[`...)
			for i := 0; i < c.Batch; i++ {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = c.appendDSR(buf, rng)
			}
			buf = append(buf, `]}`...)
		}
		bodies[r] = append([]byte(nil), buf...)
	}
	return bodies
}

// appendDSR draws one DSR per the known/unknown mix and renders it per
// the hex/numeric mix. Draw order is fixed (population first, then
// encoding) so the byte stream is reproducible.
func (c Control) appendDSR(dst []byte, rng *rand.Rand) []byte {
	var v uint64
	if len(c.Known) > 0 && rng.Float64() < c.KnownProb {
		v = c.Known[rng.Intn(len(c.Known))]
	} else {
		v = rng.Uint64()
	}
	if rng.Float64() < c.HexProb {
		dst = append(dst, '"')
		dst = strconv.AppendUint(dst, v, 16)
		return append(dst, '"')
	}
	return strconv.AppendUint(dst, v, 10)
}

// clientReport is one client's raw outcome: per-success latencies in
// issue order plus the failure count.
type clientReport struct {
	latenciesNS []int64
	failures    int
}

// runClient plays client's schedule against baseURL sequentially,
// timing each request. A non-200 answer or transport error counts as a
// failure; ctx cancellation aborts the remaining schedule and returns
// the report so far with the context error.
func runClient(ctx context.Context, c Control, client int, baseURL string, hc *http.Client) (clientReport, error) {
	rep := clientReport{latenciesNS: make([]int64, 0, c.Requests)}
	url := strings.TrimSuffix(baseURL, "/") + predictPath
	for _, body := range c.Bodies(client) {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return rep, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			rep.failures++
			continue
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil || resp.StatusCode != http.StatusOK {
			rep.failures++
			continue
		}
		rep.latenciesNS = append(rep.latenciesNS, time.Since(start).Nanoseconds())
	}
	return rep, nil
}

// NewClient builds the http.Client a load run should use: enough idle
// connections that every concurrent client keeps one warm, and a fixed
// per-request timeout.
func (c Control) NewClient() *http.Client {
	c = c.normalized()
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        2 * c.Clients,
			MaxIdleConnsPerHost: c.Clients,
		},
	}
}

// Run fans out c.Clients in-process clients against baseURL and folds
// their latencies into a Summary. The wall clock spans first request to
// last response across all clients.
func Run(ctx context.Context, c Control, baseURL string) (Summary, error) {
	c = c.normalized()
	hc := c.NewClient()
	defer hc.CloseIdleConnections()

	reports := make([]clientReport, c.Clients)
	errs := make([]error, c.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < c.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = runClient(ctx, c, i, baseURL, hc)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Summary{}, err
		}
	}
	return aggregate(reports, wall), nil
}

// Summary is the aggregate of one load run.
type Summary struct {
	Requests  int
	Failures  int
	WallNS    int64
	ReqPerSec float64
	P50NS     int64
	P95NS     int64
	P99NS     int64
}

// aggregate merges client reports: total counts, throughput over wall,
// and nearest-rank latency percentiles over all successful requests.
func aggregate(reports []clientReport, wall time.Duration) Summary {
	var all []int64
	s := Summary{WallNS: wall.Nanoseconds()}
	for _, r := range reports {
		all = append(all, r.latenciesNS...)
		s.Failures += r.failures
	}
	s.Requests = len(all) + s.Failures
	if wall > 0 {
		s.ReqPerSec = float64(len(all)) / wall.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	s.P50NS = Percentile(all, 50)
	s.P95NS = Percentile(all, 95)
	s.P99NS = Percentile(all, 99)
	return s
}

// Percentile returns the nearest-rank p-th percentile of sorted (0 when
// empty): the smallest value with at least p% of samples at or below
// it.
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
