//go:build slo

package server

import (
	"context"
	"net"
	"testing"
	"time"

	"lockstep/internal/loadgen"
)

// sloP99 is the serving-path latency floor TestPredictSLO holds.
const sloP99 = 5 * time.Millisecond

// TestPredictSLO is the serving-path SLO smoke: 8 concurrent clients of
// 200 single-DSR requests each, in loadgen's default mix, against a
// server on a loopback socket must see no failed request and a p99
// under sloP99 in the worse of two repeats. The slo build tag keeps it
// out of `go test ./...`, because a latency floor measured while other
// test binaries share the CPUs measures them; `make serve-slo` runs it
// alone. TestPredictZeroAlloc holds the allocation half of the SLO.
func TestPredictSLO(t *testing.T) {
	_, _, table := testFixture(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(newTestServer(t, func(o *Options) { o.DataDir = "" }))
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String()

	ctrl := defaultMix(table)
	ctrl.Clients, ctrl.Requests = 8, 200
	warm := ctrl
	warm.Clients, warm.Requests = 4, 13 // connection set-up and pools, unmeasured
	if _, err := loadgen.Run(context.Background(), warm, url); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	var worst time.Duration
	for i := int64(0); i < 2; i++ {
		run := ctrl
		run.Seed += i // each repeat samples its own schedule
		sum, err := loadgen.Run(context.Background(), run, url)
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if sum.Failures > 0 {
			t.Fatalf("repeat %d: %d of %d requests failed", i, sum.Failures, sum.Requests)
		}
		p99 := time.Duration(sum.P99NS)
		t.Logf("repeat %d: %d requests, %.0f req/s, p50 %v, p99 %v",
			i, sum.Requests, sum.ReqPerSec, time.Duration(sum.P50NS), p99)
		worst = max(worst, p99)
	}
	if worst > sloP99 {
		t.Fatalf("p99 %v exceeds the %v floor", worst, sloP99)
	}
}
