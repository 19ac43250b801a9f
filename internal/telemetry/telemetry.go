// Package telemetry is a small, dependency-free metrics layer for the
// lockstep campaign infrastructure: atomic counters and gauges,
// fixed-bucket latency histograms with quantile estimation, and labeled
// metric registries whose Snapshot serializes deterministically to JSON.
//
// The paper's whole argument is quantitative — detection latencies, DSR
// bit patterns — so the campaign engine (inject) and the HTTP service
// (server, unless given a registry of its own) record into the Default
// registry, and the campaign CLIs expose it via -metrics (JSON snapshot)
// and -pprof (net/http/pprof plus expvar, where the Default registry is
// published as "lockstep.telemetry"). The simulation packages (lockstep,
// handler) record nothing: the engine counts the outcomes they return.
//
// All metric updates are single atomic operations: they are safe from any
// number of goroutines, never block, and never perturb campaign
// determinism (no RNG, no time, no ordering dependence). A Snapshot taken
// while writers are active is internally consistent per value but not
// across values; quiescent snapshots are exact.
package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotone; this is
// not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (set/add semantics).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of int64 observations (cycle
// counts, in this repo). Bucket bounds are inclusive upper limits; an
// observation larger than the last bound lands in an implicit overflow
// bucket. Count, sum, min and max are tracked exactly; quantiles are
// estimated by linear interpolation inside the bucket that holds the
// requested rank.
type Histogram struct {
	bounds   []int64
	counts   []atomic.Int64 // len(bounds), plus overflow below
	overflow atomic.Int64
	count    atomic.Int64
	sum      atomic.Int64
	min      atomic.Int64 // valid only when count > 0
	max      atomic.Int64
}

// CycleBuckets is the default bound set for cycle-denominated latencies
// (detection latency, LERT, per-phase reaction time): exponential from 1
// to ~1M cycles.
var CycleBuckets = []int64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 2048, 4096, 8192, 16384, 32768, 65536,
	131072, 262144, 524288, 1048576,
}

// PopBuckets is the default bound set for DSR bit-population counts
// (1..64 set bits).
var PopBuckets = []int64{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64}

// NewHistogram builds a histogram over the given inclusive upper bounds,
// which must be strictly increasing and non-empty.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	idx := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	if idx < len(h.bounds) {
		h.counts[idx].Add(1)
	} else {
		h.overflow.Add(1)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Min returns the smallest observation (0 if none).
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (0 if none).
func (h *Histogram) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// BucketCount returns the count of the i-th bucket; i == len(Bounds())
// addresses the overflow bucket.
func (h *Histogram) BucketCount(i int) int64 {
	if i == len(h.bounds) {
		return h.overflow.Load()
	}
	return h.counts[i].Load()
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the bucket containing the rank, clamped to the
// observed [min, max]. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	lower := int64(0)
	est := float64(h.max.Load()) // falls through to overflow bucket
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(cum)+float64(c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			est = float64(lower) + frac*float64(b-lower)
			break
		}
		cum += c
		lower = b
	}
	if mn := float64(h.Min()); est < mn {
		est = mn
	}
	if mx := float64(h.Max()); est > mx {
		est = mx
	}
	return est
}
