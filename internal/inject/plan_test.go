package inject

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/lockstep"
	"lockstep/internal/workload"
)

// TestPlanEnumeration drives Plan through its Config knobs, including the
// edge cases: stride larger than the flop count, an empty kernel list
// (full suite), a kind filter, and a single injection interval.
func TestPlanEnumeration(t *testing.T) {
	nf := cpu.NumFlops()
	suite := len(workload.Kernels())
	tests := []struct {
		name      string
		cfg       Config
		wantLen   int
		wantFlops []int // exact distinct flops, if non-nil
		wantKinds []lockstep.FaultKind
		wantKerns []string // exact kernel visit order, if non-nil
	}{
		{
			name: "stride exceeds flop count",
			cfg: Config{
				Kernels:    []string{"ttsprk"},
				FlopStride: nf + 1,
			},
			wantLen:   3, // one flop x three kinds x one injection
			wantFlops: []int{0},
		},
		{
			name:    "empty kernel list means full suite",
			cfg:     Config{FlopStride: nf}, // one flop per kernel to stay small
			wantLen: suite * 3,
		},
		{
			name: "kind filter",
			cfg: Config{
				Kernels:    []string{"ttsprk"},
				FlopStride: 64,
				Kinds:      []lockstep.FaultKind{lockstep.Stuck0},
			},
			wantLen:   (nf + 63) / 64,
			wantKinds: []lockstep.FaultKind{lockstep.Stuck0},
		},
		{
			name: "kernel filter preserves config order",
			cfg: Config{
				Kernels:    []string{"rspeed", "ttsprk"},
				FlopStride: nf,
			},
			wantLen:   2 * 3,
			wantKerns: []string{"rspeed", "ttsprk"},
		},
		{
			name: "single interval",
			cfg: Config{
				Kernels:               []string{"puwmod"},
				RunCycles:             500,
				Intervals:             1,
				InjectionsPerFlopKind: 3,
				FlopStride:            128,
			},
			wantLen: ((nf + 127) / 128) * 3 * 3,
		},
		{
			name: "injections exceed interval count wraps",
			cfg: Config{
				Kernels:               []string{"puwmod"},
				RunCycles:             800,
				Intervals:             2,
				InjectionsPerFlopKind: 5,
				FlopStride:            nf,
			},
			wantLen: 3 * 5,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := tc.cfg.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if len(plan) != tc.wantLen {
				t.Fatalf("plan has %d experiments, want %d", len(plan), tc.wantLen)
			}
			got, err := tc.cfg.Total()
			if err != nil {
				t.Fatal(err)
			}
			if got != len(plan) {
				t.Fatalf("Total()=%d but plan has %d experiments", got, len(plan))
			}
			cfg := tc.cfg
			if err := cfg.normalize(); err != nil {
				t.Fatal(err)
			}
			for i, e := range plan {
				if e.Cycle < 0 || e.Cycle >= cfg.RunCycles {
					t.Fatalf("experiment %d: cycle %d outside [0,%d)", i, e.Cycle, cfg.RunCycles)
				}
				if e.Flop%cfg.FlopStride != 0 {
					t.Fatalf("experiment %d: flop %d off the stride-%d grid", i, e.Flop, cfg.FlopStride)
				}
			}
			if tc.wantFlops != nil {
				seen := map[int]bool{}
				for _, e := range plan {
					seen[e.Flop] = true
				}
				if len(seen) != len(tc.wantFlops) {
					t.Fatalf("plan covers %d flops, want %d", len(seen), len(tc.wantFlops))
				}
				for _, f := range tc.wantFlops {
					if !seen[f] {
						t.Fatalf("flop %d missing from plan", f)
					}
				}
			}
			if tc.wantKinds != nil {
				for i, e := range plan {
					ok := false
					for _, k := range tc.wantKinds {
						if e.Kind == k {
							ok = true
						}
					}
					if !ok {
						t.Fatalf("experiment %d has filtered-out kind %v", i, e.Kind)
					}
				}
			}
			if tc.wantKerns != nil {
				var order []string
				for _, e := range plan {
					if len(order) == 0 || order[len(order)-1] != e.Kernel {
						order = append(order, e.Kernel)
					}
				}
				if len(order) != len(tc.wantKerns) {
					t.Fatalf("kernel visit order %v, want %v", order, tc.wantKerns)
				}
				for i := range order {
					if order[i] != tc.wantKerns[i] {
						t.Fatalf("kernel visit order %v, want %v", order, tc.wantKerns)
					}
				}
			}
		})
	}
}

// TestPlanIntervalAssignment: while a (kernel, flop, kind) group has fewer
// injections than intervals, each lands in a distinct interval (the
// paper's "distinct randomly chosen interval" sampling).
func TestPlanIntervalAssignment(t *testing.T) {
	cfg := Config{
		Kernels:               []string{"ttsprk"},
		RunCycles:             6400,
		Intervals:             8,
		InjectionsPerFlopKind: 8,
		FlopStride:            256,
	}
	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	intervalLen := cfg.RunCycles / cfg.Intervals
	type group struct {
		flop int
		kind lockstep.FaultKind
	}
	used := map[group]map[int]bool{}
	for _, e := range plan {
		g := group{e.Flop, e.Kind}
		if used[g] == nil {
			used[g] = map[int]bool{}
		}
		iv := e.Cycle / intervalLen
		if used[g][iv] {
			t.Fatalf("group %+v: interval %d assigned twice", g, iv)
		}
		used[g][iv] = true
	}
	for g, ivs := range used {
		if len(ivs) != cfg.Intervals {
			t.Fatalf("group %+v: %d distinct intervals, want %d", g, len(ivs), cfg.Intervals)
		}
	}
}

// TestPlanDeterminism: the plan is a pure function of the campaign
// parameters — repeated enumeration and a different worker count give the
// identical schedule.
func TestPlanDeterminism(t *testing.T) {
	cfg := Config{Kernels: []string{"rspeed"}, FlopStride: 32, Seed: 42}
	a, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 7 // execution-only knob; must not alter the schedule
	b, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("experiment %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPlanUnknownKernel: enumeration surfaces config errors.
func TestPlanUnknownKernel(t *testing.T) {
	cfg := Config{Kernels: []string{"nosuch"}}
	if _, err := cfg.Plan(); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// planReference is the direct form of the plan: a fresh rand.NewSource
// per (kernel, flop, kind) group, filled serially. It is the oracle
// TestPlanMatchesReference holds Plan to, element for element.
func planReference(c Config) ([]Experiment, error) {
	if err := c.normalize(); err != nil {
		return nil, err
	}
	intervalLen := c.RunCycles / c.Intervals
	if intervalLen < 1 {
		intervalLen = 1
	}
	// c is normalized above, so Total cannot fail here.
	total, _ := c.Total()
	plan := make([]Experiment, 0, total)
	for _, name := range c.Kernels {
		for flop := 0; flop < cpu.NumFlops(); flop += c.FlopStride {
			for _, kind := range c.Kinds {
				// A per-(kernel, flop, kind) RNG keeps each group's
				// injection points independent of campaign iteration order.
				// The interval permutation guarantees the group's
				// injections land in distinct intervals (until it wraps).
				rng := rand.New(rand.NewSource(mix(c.Seed, name, flop, int(kind))))
				intervals := rng.Perm(c.Intervals)
				for n := 0; n < c.InjectionsPerFlopKind; n++ {
					iv := intervals[n%c.Intervals]
					cycle := iv*intervalLen + rng.Intn(intervalLen)
					if cycle >= c.RunCycles {
						cycle = c.RunCycles - 1
					}
					plan = append(plan, Experiment{
						Kernel: name,
						Flop:   flop,
						Kind:   kind,
						Seq:    n,
						Cycle:  cycle,
					})
				}
			}
		}
	}
	return plan, nil
}

// dclsPlanShape is the campaign-dcls benchmark workload's plan: three
// reference kernels, a 6,000-cycle horizon, every flop.
func dclsPlanShape(seed int64) Config {
	return Config{Kernels: []string{"ttsprk", "rspeed", "puwmod"}, RunCycles: 6000, FlopStride: 1, Seed: seed}
}

// TestPlanMatchesReference is the differential gate for the plan, which
// fixes every dataset byte: Plan must equal planReference element for
// element on both benchmark campaign shapes at several seeds (a negative
// one included), on an Intervals count whose permutation draws past
// draw 273, where the source starts reading its ring, and on a group
// that wraps its intervals. Each case runs Plan at 1, 3 and 7 workers from concurrent
// goroutines, so the race detector sees the shared tables.
func TestPlanMatchesReference(t *testing.T) {
	type planCase struct {
		name string
		cfg  Config
	}
	var cases []planCase
	for _, seed := range []int64{1, 7, 50, 51, -3} {
		cases = append(cases,
			planCase{fmt.Sprintf("dcls/seed=%d", seed), dclsPlanShape(seed)},
			planCase{fmt.Sprintf("tmr-ckpt/seed=%d", seed), Config{RunCycles: 6000, FlopStride: 4, Seed: seed,
				Mode: lockstep.Mode{Kind: lockstep.ModeTMR}}})
	}
	cases = append(cases,
		planCase{"300 intervals draw past 273", Config{Kernels: []string{"ttsprk", "canrdr"}, RunCycles: 500,
			Intervals: 300, InjectionsPerFlopKind: 3, FlopStride: 16, Seed: 9}},
		planCase{"5 injections over 2 intervals wrap", Config{Kernels: []string{"puwmod"}, RunCycles: 800,
			Intervals: 2, InjectionsPerFlopKind: 5, FlopStride: 8, Seed: -11}},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := planReference(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, workers := range []int{1, 3, 7} {
				cfg := tc.cfg
				cfg.Workers = workers
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := cfg.Plan()
					if err != nil {
						t.Error(err)
						return
					}
					if len(got) != len(want) {
						t.Errorf("workers=%d: plan has %d experiments, reference %d", workers, len(got), len(want))
						return
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("workers=%d: experiment %d is %+v, reference %+v", workers, i, got[i], want[i])
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestPlanSourceMatchesMathRand: planSource's stream equals
// rand.NewSource's on 3,000+ seeds for 650 draws each, past draws 273
// and 607, where the source's two terms start reading its ring. The seeds
// cover math/rand's normalization edges, which Plan's mix outputs reach
// only by chance: 0 and ±(2³¹−1) (mapped to 89482311), 2³¹, the int64
// extremes and small negatives. One source is re-seeded throughout, as
// Plan's workers do, and Int63 and Uint64 calls alternate.
func TestPlanSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1<<31 - 1, -(1<<31 - 1), 1 << 31, -(1 << 31), math.MinInt64, math.MaxInt64, 89482311}
	for s := int64(-50); s <= 50; s++ {
		seeds = append(seeds, s)
	}
	gen := rand.New(rand.NewSource(2024))
	for len(seeds) < 3100 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	var src planSource
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for k := 0; k < 650; k++ {
			var got, want uint64
			if k%2 == 0 {
				got, want = src.Uint64(), ref.Uint64()
			} else {
				got, want = uint64(src.Int63()), uint64(ref.Int63())
			}
			if got != want {
				t.Fatalf("seed %d, draw %d: planSource gives %#x, math/rand %#x", seed, k, got, want)
			}
		}
	}
}

var benchPlan []Experiment

// BenchmarkPlan enumerates the campaign-dcls benchmark workload's plan
// (19,845 groups) at the default worker count.
func BenchmarkPlan(b *testing.B) {
	cfg := dclsPlanShape(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err := cfg.Plan()
		if err != nil {
			b.Fatal(err)
		}
		benchPlan = plan
	}
}
