package inject

import (
	"slices"
	"testing"

	"lockstep/internal/lockstep"
)

// resolveAll runs the engine over its whole plan and returns the outcomes
// in plan order.
func resolveAll(t *testing.T, en *engine) []lockstep.Outcome {
	t.Helper()
	idxs := make([]int, len(en.plan))
	for i := range idxs {
		idxs[i] = i
	}
	outs := make([]lockstep.Outcome, len(idxs))
	if _, err := en.resolve(idxs, func(run []int, o []lockstep.Outcome) {
		for i, idx := range run {
			outs[idx] = o[i]
		}
	}); err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestGoldenBound: over all 13 kernels the engine builds each kernel's
// golden once, never holds more than Workers+1 at a time, and once a
// kernel's work is done keeps only the golden of the last kernel. The
// outcomes do not depend on the worker count.
func TestGoldenBound(t *testing.T) {
	var want []lockstep.Outcome
	for _, workers := range []int{2, 5} {
		cfg := Config{RunCycles: 2000, FlopStride: 64, Seed: 3, Workers: workers}
		en, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(en.cfg.Kernels); n != 13 {
			t.Fatalf("the default campaign has %d kernels, want 13", n)
		}
		outs := resolveAll(t, en)
		if en.builds != 13 {
			t.Errorf("workers=%d: built %d goldens for 13 kernels", workers, en.builds)
		}
		if en.peak > workers+1 {
			t.Errorf("workers=%d: held %d goldens at once, more than %d", workers, en.peak, workers+1)
		}
		if len(en.held) != 1 || en.held[en.last] == nil {
			t.Errorf("workers=%d: %d goldens held after the campaign, want only the last kernel's", workers, len(en.held))
		}
		if want == nil {
			want = outs
		} else if !slices.Equal(outs, want) {
			t.Errorf("workers=%d: outcomes differ from workers=2", workers)
		}
	}
}

// TestSpanRunnerGoldenReuse: consecutive spans of one kernel block build
// its golden once, and spans over more kernels than the bound evict the
// least recently used golden.
func TestSpanRunnerGoldenReuse(t *testing.T) {
	cfg := Config{
		Kernels:   []string{"ttsprk", "rspeed", "puwmod"},
		RunCycles: 2000, FlopStride: 64, Seed: 3, Workers: 1,
	}
	r, err := NewSpanRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	en := r.en
	if en.bound != 2 {
		t.Fatalf("bound %d at one worker, want 2", en.bound)
	}
	block := func(k int) Span { return Span{Lo: k * en.perKernel, Hi: (k + 1) * en.perKernel} }
	steps := []struct {
		kernel, part int // half of the kernel's block to run
		builds       int // goldens built so far
	}{
		{0, 0, 1}, {0, 1, 1}, // one block: one build
		{1, 0, 2}, {0, 0, 2}, // kernel 1 is now least recently used
		{2, 0, 3}, // evicts kernel 1
		{0, 1, 3}, {1, 1, 4},
	}
	for i, s := range steps {
		b := block(s.kernel)
		mid := (b.Lo + b.Hi) / 2
		sp := Span{Lo: b.Lo, Hi: mid}
		if s.part == 1 {
			sp = Span{Lo: mid, Hi: b.Hi}
		}
		if _, _, err := r.Run(sp); err != nil {
			t.Fatal(err)
		}
		if en.builds != s.builds {
			t.Fatalf("step %d (kernel %d): %d goldens built, want %d", i, s.kernel, en.builds, s.builds)
		}
		if len(en.held) > en.bound || en.held[s.kernel] == nil {
			t.Fatalf("step %d (kernel %d): holds kernels %v, want at most %d including kernel %d", i, s.kernel, heldKernels(en), en.bound, s.kernel)
		}
	}
}

func heldKernels(en *engine) []int {
	var ks []int
	for k := range en.held {
		ks = append(ks, k)
	}
	return ks
}
