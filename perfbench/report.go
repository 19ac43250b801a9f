package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metric is one named number as the benchmark prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stageReport is what one stage process hands back to the controller.
// Attempted counts checked operations (campaign runs, predict requests,
// set-ups, trace integrity checks); Failed counts those whose output was
// refused or wrong.
type stageReport struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Info carries diagnostics that are not metrics: sample counts,
	// per-repeat values, the pinned digest.
	Info map[string]any `json:"info"`
}

func newReport() *stageReport {
	return &stageReport{Metrics: map[string]metric{}, Info: map[string]any{}}
}

func (r *stageReport) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records one operation; a non-empty problem list fails it.
func (r *stageReport) check(op string, problems []string) {
	r.Attempted++
	if len(problems) == 0 {
		return
	}
	r.Failed++
	// Keep the log readable when every request of a loop fails.
	if len(r.Errors) < 20 {
		for _, p := range problems {
			r.Errors = append(r.Errors, op+": "+p)
		}
	}
}

func (r *stageReport) checkf(op string, ok bool, format string, args ...any) {
	if ok {
		r.check(op, nil)
		return
	}
	r.check(op, []string{fmt.Sprintf(format, args...)})
}

// median of xs (NaN for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }
func micros(d time.Duration) float64 { return float64(d) / 1e3 }
