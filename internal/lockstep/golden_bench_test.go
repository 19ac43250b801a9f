package lockstep

import (
	"testing"

	"lockstep/internal/workload"
)

// BenchmarkNewGolden builds the golden run of all 13 kernels at the
// 6,000-cycle campaign horizon, one after another: the golden-build share
// of a campaign's set-up, per campaign-tmr-ckpt's kernel set. ns/cycle is
// per simulated golden cycle.
func BenchmarkNewGolden(b *testing.B) {
	const cycles = 6000
	kernels := workload.Kernels()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			if _, err := NewGolden(k, cycles, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(kernels)*cycles), "ns/cycle")
}
