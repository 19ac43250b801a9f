// Package experiments orchestrates the reproduction of every data-bearing
// table and figure in the paper's evaluation (Section V): it runs the
// fault-injection campaign, trains predictors with 5-fold cross
// validation, evaluates the baseline and prediction LERT models, and
// formats results side by side with the paper's published numbers.
//
// The same entry points back the lockstep-experiments CLI and the
// bench_test.go benchmark harness.
package experiments

import (
	"fmt"
	"math/rand"

	"lockstep/internal/dataset"
	"lockstep/internal/inject"
	"lockstep/internal/workload"
)

// Scale sizes a reproduction run. The paper's campaign (10M injections,
// two weeks of cluster time) corresponds to Full on a much bigger CPU;
// Small keeps tests and benchmarks fast; Default is a laptop-scale
// campaign with full flop coverage.
type Scale struct {
	Name string
	// Config is the campaign every experiment derives from. Its lockstep
	// Mode is a first-class experiment dimension: the same injection plan
	// re-run per mode answers whether the DSR->PTAR correlation survives
	// temporal slip and voting. Its Seed also seeds the cross-validation
	// folds and the evaluations.
	Config inject.Config
}

// Predefined scales.
var (
	// Small: three kernels, every 6th flop — seconds. Used by tests and
	// benchmarks.
	Small = Scale{Name: "small", Config: inject.Config{
		Kernels:               []string{"ttsprk", "rspeed", "matrix"},
		RunCycles:             8000,
		Intervals:             64,
		FlopStride:            6,
		InjectionsPerFlopKind: 1,
		Seed:                  1,
	}}
	// Default: full suite, full flop coverage — about a minute or two.
	Default = Scale{Name: "default", Config: inject.Config{
		RunCycles:             12000,
		Intervals:             64,
		FlopStride:            1,
		InjectionsPerFlopKind: 1,
		Seed:                  1,
	}}
	// Full: full suite, full coverage, two intervals per (flop, kind) and
	// a longer horizon — several minutes.
	Full = Scale{Name: "full", Config: inject.Config{
		RunCycles:             20000,
		Intervals:             64,
		FlopStride:            1,
		InjectionsPerFlopKind: 2,
		Seed:                  1,
	}}
)

// ScaleByName resolves a scale name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return Small, nil
	case "default", "":
		return Default, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (small|default|full)", name)
}

// Context carries one campaign's data and the measured kernel timings; all
// experiments derive from it, so the expensive simulation work happens
// once.
type Context struct {
	Scale   Scale
	DS      *dataset.Dataset           // full experiment log (incl. masked)
	Timings map[string]workload.Timing // per-kernel restart/iteration cycles

	folds      []dataset.Fold
	restartMap map[string]int64
}

// NumFolds is the cross-validation arity (the paper uses 5-fold CV).
const NumFolds = 5

// NewContext runs the campaign and timing measurements for the scale.
// progress (optional) receives campaign progress.
func NewContext(s Scale, progress func(done, total int)) (*Context, error) {
	ctx, _, err := NewContextStats(s, progress)
	return ctx, err
}

// NewContextStats is NewContext plus the campaign's wall-clock and
// throughput accounting (experiments/sec across the worker pool).
func NewContextStats(s Scale, progress func(done, total int)) (*Context, inject.Stats, error) {
	cfg := s.Config
	cfg.Progress = progress
	ds, st, err := inject.RunStats(cfg)
	if err != nil {
		return nil, st, err
	}
	ctx, err := NewContextFromData(s, ds)
	return ctx, st, err
}

// NewContextFromData builds a context around an existing dataset (e.g.
// loaded from a campaign log on disk).
func NewContextFromData(s Scale, ds *dataset.Dataset) (*Context, error) {
	c := &Context{Scale: s, DS: ds, Timings: map[string]workload.Timing{}}
	kernels := s.Config.Kernels
	if len(kernels) == 0 {
		for _, k := range workload.Kernels() {
			kernels = append(kernels, k.Name)
		}
	}
	c.restartMap = map[string]int64{}
	for _, name := range kernels {
		k := workload.ByName(name)
		if k == nil {
			return nil, fmt.Errorf("experiments: unknown kernel %q", name)
		}
		tm, err := k.MeasureTiming(400000)
		if err != nil {
			return nil, err
		}
		c.Timings[name] = tm
		c.restartMap[name] = int64(tm.RestartCycles)
	}
	rng := rand.New(rand.NewSource(s.Config.Seed + 100))
	c.folds = c.DS.Folds(rng, NumFolds)
	return c, nil
}

// balancedTest returns fold fi's test split rebalanced to equal soft/hard
// error counts, matching the paper's dataset construction (see
// dataset.Balanced). Deterministic per fold.
func (c *Context) balancedTest(fi int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(c.Scale.Config.Seed + 7000 + int64(fi)))
	return c.folds[fi].Test.Balanced(rng)
}
