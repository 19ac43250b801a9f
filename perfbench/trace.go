package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public function of that layer. Spans of one experiment
// share its plan index as Trace; spans of one predict request share the
// request's sequence number. N > 1 marks a span that times a loop of N
// calls too short to time one by one.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every finished span in memory until the run writes them
// out, so recording costs two clock reads and an append.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) start(name string, parent, trace int64) span {
	return span{Name: name, ID: t.ids.Add(1), Parent: parent, Trace: trace, Start: int64(time.Since(t.epoch))}
}

func (t *tracer) end(s span, n int) span {
	s.End = int64(time.Since(t.epoch))
	if n > 1 {
		s.N = n
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// named returns the finished spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

// layerTime is one span name's aggregate: calls, total time, and self
// time — the total minus the part of each span that its children cover.
type layerTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes aggregates spans by name. Children of one span may overlap
// each other (parallel workers), so the covered part is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) []layerTime {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		calls := max(s.N, 1)
		lt.Spans++
		lt.Calls += calls
		d := s.End - s.Start
		lt.TotalS += float64(d) / 1e9
		lt.SelfS += float64(d-covered(kids[s.ID], s.Start, s.End)) / 1e9
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := [2]int64{-1, -1}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > cur[1] {
			if cur[1] > cur[0] {
				sum += cur[1] - cur[0]
			}
			cur = [2]int64{a, b}
		} else if b > cur[1] {
			cur[1] = b
		}
	}
	if cur[1] > cur[0] {
		sum += cur[1] - cur[0]
	}
	return sum
}

// writeSpans appends every span to path as JSON lines, tagged with the
// stage that recorded it.
func (t *tracer) writeSpans(path, stage string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Stage string `json:"stage"`
			span
		}{stage, s}); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the per-layer self-time table to w.
func printSelfTimes(w io.Writer, stage string, lts []layerTime) {
	fmt.Fprintf(w, "perfbench: %s stage layer times (self = total minus child spans)\n", stage)
	for _, lt := range lts {
		fmt.Fprintf(w, "  %-26s spans %7d calls %8d total %10.4fs self %10.4fs\n",
			lt.Name, lt.Spans, lt.Calls, lt.TotalS, lt.SelfS)
	}
}
