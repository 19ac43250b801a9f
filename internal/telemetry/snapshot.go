package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"

	"lockstep/internal/atomicfile"
)

// Snapshot is a point-in-time, JSON-serializable view of a registry.
// Serialization is deterministic for a fixed set of recorded
// observations: metrics are ordered by canonical id, label maps are
// rendered with sorted keys (encoding/json), and quantiles are rounded
// to 3 decimals so float formatting is stable.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// Bucket is one histogram bucket in a snapshot. Cumulative is the count
// of observations <= Le, so the sequence is monotone non-decreasing; the
// overflow bucket (> last bound) is not listed — it is Count minus the
// last Cumulative.
type Bucket struct {
	Le         int64 `json:"le"`
	Cumulative int64 `json:"cumulative"`
}

// HistogramValue is one histogram's snapshot.
type HistogramValue struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	P50     float64           `json:"p50"`
	P95     float64           `json:"p95"`
	P99     float64           `json:"p99"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// Snapshot captures the registry. Slices are non-nil so an empty
// registry serializes as [] rather than null.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   []CounterValue{},
		Gauges:     []GaugeValue{},
		Histograms: []HistogramValue{},
	}
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterValue{
				Name: e.name, Labels: labelMap(e.labels), Value: e.c.Value(),
			})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugeValue{
				Name: e.name, Labels: labelMap(e.labels), Value: e.g.Value(),
			})
		case kindHistogram:
			h := e.h
			hv := HistogramValue{
				Name: e.name, Labels: labelMap(e.labels),
				Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
				P50: round3(h.Quantile(0.50)),
				P95: round3(h.Quantile(0.95)),
				P99: round3(h.Quantile(0.99)),
			}
			var cum int64
			for i, b := range h.Bounds() {
				cum += h.BucketCount(i)
				hv.Buckets = append(hv.Buckets, Bucket{Le: b, Cumulative: cum})
			}
			s.Histograms = append(s.Histograms, hv)
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteJSONFile replaces path with the registry snapshot as indented
// JSON (WriteJSON) through atomicfile.Write, so a crash never leaves a
// torn snapshot where the finished one should be.
func (r *Registry) WriteJSONFile(path string) error {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return err
	}
	return atomicfile.Write(path, buf.Bytes())
}
