package inject

import (
	"math/rand"
	"sync"

	"lockstep/internal/cpu"
	"lockstep/internal/lockstep"
)

// Experiment is one planned injection: the coordinates of the fault plus
// the precomputed injection cycle. The whole campaign is enumerated up
// front so execution can be sharded across workers while the schedule —
// and therefore the resulting dataset — stays bit-identical to a serial
// run: the injection cycle is fixed at enumeration time from an RNG
// seeded only from Config.Seed and the experiment's (kernel, flop, kind)
// group, never from worker count, plan shard or completion order.
type Experiment struct {
	Kernel string
	Flop   int
	Kind   lockstep.FaultKind
	Seq    int // n-th injection for this (kernel, flop, kind) group
	Cycle  int // absolute injection cycle within the golden run
}

// Plan enumerates the campaign in canonical order: kernel (config order) ×
// flop (ascending, by stride) × kind (config order) × injection sequence
// number. Each (kernel, flop, kind) group draws its injection cycles from
// a math/rand stream seeded by mixing Config.Seed with the group
// coordinates, so any sub-plan is reproducible in isolation and the
// schedule is invariant under re-ordering, sharding, or filtering of the
// plan.
//
// The groups are split over Config.Workers goroutines. Each keeps one
// *rand.Rand over a planSource, which reproduces rand.NewSource(seed)'s
// stream bit for bit but seeds in O(1), and group g fills the fixed plan
// slots [g·InjectionsPerFlopKind, (g+1)·InjectionsPerFlopKind), so the
// plan is the same at every worker count.
func (c Config) Plan() ([]Experiment, error) {
	if err := c.normalize(); err != nil {
		return nil, err
	}
	// normalize bounds Intervals by RunCycles, so intervalLen >= 1 and
	// every cycle below falls in [0, RunCycles).
	intervalLen := c.RunCycles / c.Intervals
	flops := (cpu.NumFlops() + c.FlopStride - 1) / c.FlopStride
	groups := c.groups()
	plan := make([]Experiment, groups*c.InjectionsPerFlopKind)
	workers := min(c.Workers, groups)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			rng := rand.New(&planSource{})
			intervals := make([]int, c.Intervals)
			for g := lo; g < hi; g++ {
				kind := c.Kinds[g%len(c.Kinds)]
				flop := g / len(c.Kinds) % flops * c.FlopStride
				name := c.Kernels[g/len(c.Kinds)/flops]
				rng.Seed(mix(c.Seed, name, flop, int(kind)))
				// rng.Perm(c.Intervals)'s exact loop, into the reused
				// buffer: the group's injections land in distinct
				// intervals (until they wrap).
				for i := range intervals {
					j := rng.Intn(i + 1)
					intervals[i] = intervals[j]
					intervals[j] = i
				}
				slots := plan[g*c.InjectionsPerFlopKind : (g+1)*c.InjectionsPerFlopKind]
				for n := range slots {
					slots[n] = Experiment{
						Kernel: name,
						Flop:   flop,
						Kind:   kind,
						Seq:    n,
						Cycle:  intervals[n%c.Intervals]*intervalLen + rng.Intn(intervalLen),
					}
				}
			}
		}(groups*w/workers, groups*(w+1)/workers)
	}
	wg.Wait()
	return plan, nil
}

// mix derives a stable 64-bit seed from the campaign seed and experiment
// coordinates (FNV-style).
func mix(seed int64, kernel string, flop, kind int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3
	for _, b := range []byte(kernel) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	h = (h ^ uint64(flop)) * 0x100000001B3
	h = (h ^ uint64(kind)) * 0x100000001B3
	h ^= h >> 29
	return int64(h)
}
