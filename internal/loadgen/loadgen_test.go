package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testControl() Control {
	return Control{
		Clients:   4,
		Requests:  25,
		Batch:     3,
		HexProb:   0.5,
		KnownProb: 0.5,
		Seed:      42,
		Known:     []uint64{1, 0x2a, 0xffffffffffffffff, 7},
	}
}

// TestBodiesDeterministic is the loadgen determinism contract: the same
// Control and seed must produce byte-identical request bodies, and
// changing the seed or the client index must not.
func TestBodiesDeterministic(t *testing.T) {
	c := testControl()
	a, b := c.Bodies(1), c.Bodies(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same Control and client produced different bodies")
	}
	c2 := testControl() // independent value, same fields
	if !reflect.DeepEqual(a, c2.Bodies(1)) {
		t.Fatal("equal Controls produced different bodies")
	}
	if reflect.DeepEqual(a, c.Bodies(2)) {
		t.Fatal("different clients produced identical bodies")
	}
	c.Seed++
	if reflect.DeepEqual(a, c.Bodies(1)) {
		t.Fatal("different seeds produced identical bodies")
	}
}

// TestBodiesGolden pins loadgen's request bytes across commits: the
// SHA-256 of two clients' schedules for a Control shaped like the
// benchmark's serve workloads (single-DSR and 256-DSR batches, half hex,
// half trained DSRs) must not move, so no loadgen edit can silently
// change the benchmark's input.
func TestBodiesGolden(t *testing.T) {
	known := []uint64{0x1, 0x2a, 0x3f00, 0x10000, 0xdeadbeef, 0x8000000000000000, 0xffffffffffffffff}
	for _, tc := range []struct {
		batch, requests int
		want            string
	}{
		{1, 2048, "b6b3f8d3c029d3ff5ee2b0600a18b7f8de8763244bb104c2ee2a8aac143830a2"},
		{256, 64, "dc63a6f64e7d8ae50f7a5ab5492ab6bc3d81156a2268c6fe587176e0650c8890"},
	} {
		c := Control{Clients: 2, Requests: tc.requests, Batch: tc.batch, HexProb: 0.5, KnownProb: 0.5, Seed: 53, Known: known}
		h := sha256.New()
		for client := 0; client < c.Clients; client++ {
			for _, b := range c.Bodies(client) {
				h.Write(b)
				h.Write([]byte{'\n'})
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("batch %d: bodies digest %s, want %s", tc.batch, got, tc.want)
		}
	}
}

// TestBodiesShape checks the generated wire format: single-DSR requests
// use {"dsr":...}, batches use {"dsrs":[...]} with exactly Batch
// elements, every body is valid JSON, and the encoding/population mixes
// obey their probability knobs at the extremes.
func TestBodiesShape(t *testing.T) {
	type req struct {
		DSR  *json.RawMessage  `json:"dsr"`
		DSRs []json.RawMessage `json:"dsrs"`
	}

	c := testControl()
	for _, body := range c.Bodies(0) {
		var r req
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("invalid body %q: %v", body, err)
		}
		if r.DSR != nil || len(r.DSRs) != c.Batch {
			t.Fatalf("body %q: want %d-element dsrs batch", body, c.Batch)
		}
	}

	single := c
	single.Batch = 1
	for _, body := range single.Bodies(0) {
		var r req
		if err := json.Unmarshal(body, &r); err != nil || r.DSR == nil || r.DSRs != nil {
			t.Fatalf("single body %q: want lone dsr field (%v)", body, err)
		}
	}

	allHexKnown := c
	allHexKnown.HexProb = 1
	allHexKnown.KnownProb = 1
	known := map[string]bool{`"1"`: true, `"2a"`: true, `"ffffffffffffffff"`: true, `"7"`: true}
	for _, body := range allHexKnown.Bodies(0) {
		var r req
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		for _, v := range r.DSRs {
			if !known[string(v)] {
				t.Fatalf("HexProb=KnownProb=1 produced %s outside the known hex set", v)
			}
		}
	}

	numeric := c
	numeric.HexProb = 0
	for _, body := range numeric.Bodies(0) {
		var r req
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		for _, v := range r.DSRs {
			if len(v) > 0 && v[0] == '"' {
				t.Fatalf("HexProb=0 produced string value %s", v)
			}
		}
	}
}

// TestNormalizedDefaults: the zero Control is a valid single-probe run.
func TestNormalizedDefaults(t *testing.T) {
	n := Control{}.normalized()
	if n.Clients != 1 || n.Requests != 1 || n.Batch != 1 {
		t.Fatalf("zero Control normalized to %+v", n)
	}
	if c := (Control{HexProb: -1, KnownProb: 7}).normalized(); c.HexProb != 0 || c.KnownProb != 1 {
		t.Fatalf("probabilities not clamped: %+v", c)
	}
	bodies := Control{}.Bodies(0)
	if len(bodies) != 1 {
		t.Fatalf("zero Control produced %d bodies", len(bodies))
	}
}

// TestRunAgainstStub drives the full in-process fan-out against an
// httptest stub and checks delivery: every scheduled body arrives
// exactly once (as a multiset — clients interleave), the Summary counts
// match, and percentiles are ordered.
func TestRunAgainstStub(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil || r.Method != http.MethodPost || r.URL.Path != "/v1/predict" {
			t.Errorf("bad request: %s %s (%v)", r.Method, r.URL.Path, err)
		}
		mu.Lock()
		got[string(body)]++
		mu.Unlock()
		w.Write([]byte(`{}`))
	}))
	defer stub.Close()

	c := testControl()
	sum, err := Run(context.Background(), c, stub.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for i := 0; i < c.Clients; i++ {
		for _, b := range c.Bodies(i) {
			want[string(b)]++
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered body multiset differs: got %d distinct, want %d", len(got), len(want))
	}
	if sum.Requests != c.Clients*c.Requests || sum.Failures != 0 {
		t.Fatalf("summary %+v: want %d requests, 0 failures", sum, c.Clients*c.Requests)
	}
	if sum.ReqPerSec <= 0 || sum.WallNS <= 0 {
		t.Fatalf("summary %+v: non-positive throughput", sum)
	}
	if sum.P50NS <= 0 || sum.P50NS > sum.P95NS || sum.P95NS > sum.P99NS {
		t.Fatalf("summary %+v: percentiles out of order", sum)
	}
}

// TestRunCountsFailures: non-200 answers land in Failures, not in the
// latency population.
func TestRunCountsFailures(t *testing.T) {
	var n atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if n.Add(1)%3 == 0 {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer stub.Close()

	c := Control{Clients: 2, Requests: 30, Batch: 1, Seed: 7}
	sum, err := Run(context.Background(), c, stub.URL)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests != 60 || sum.Failures != 20 {
		t.Fatalf("summary %+v: want 60 requests with 20 failures", sum)
	}
}

// TestRunClientCancel: cancellation aborts the schedule with the
// context error and a partial report.
func TestRunClientCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Control{Requests: 5, Seed: 1}
	rep, err := runClient(ctx, c, 0, "http://127.0.0.1:0", c.NewClient())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.latenciesNS) != 0 {
		t.Fatalf("cancelled client recorded %d latencies", len(rep.latenciesNS))
	}
}

// TestPercentile pins the nearest-rank definition on small slices.
func TestPercentile(t *testing.T) {
	cases := []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{nil, 99, 0},
		{[]int64{5}, 50, 5},
		{[]int64{5}, 99, 5},
		{[]int64{1, 2, 3, 4}, 50, 2},
		{[]int64{1, 2, 3, 4}, 95, 4},
		{[]int64{1, 2, 3, 4}, 100, 4},
		{[]int64{1, 2, 3, 4}, 0, 1},
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	cases = append(cases,
		struct {
			sorted []int64
			p      float64
			want   int64
		}{hundred, 50, 50},
		struct {
			sorted []int64
			p      float64
			want   int64
		}{hundred, 99, 99},
		struct {
			sorted []int64
			p      float64
			want   int64
		}{hundred, 99.5, 100},
	)
	for _, tc := range cases {
		if got := Percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("Percentile(%v, %v) = %d, want %d", tc.sorted, tc.p, got, tc.want)
		}
	}
}

// TestAggregate folds two hand-built reports and checks the totals.
func TestAggregate(t *testing.T) {
	reports := []clientReport{
		{latenciesNS: []int64{300, 100}, failures: 1},
		{latenciesNS: []int64{200, 400}},
	}
	s := aggregate(reports, 2*time.Second)
	if s.Requests != 5 || s.Failures != 1 {
		t.Fatalf("aggregate %+v: want 5 requests, 1 failure", s)
	}
	if s.ReqPerSec != 2 {
		t.Fatalf("aggregate %+v: want 2 req/s", s)
	}
	if s.P50NS != 200 || s.P95NS != 400 || s.P99NS != 400 {
		t.Fatalf("aggregate %+v: wrong percentiles", s)
	}
}
