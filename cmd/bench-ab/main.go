// Command bench-ab measures a change with the repository's benchmark
// (perfbench) the way a perf claim must be measured: the working tree
// against a base commit, in alternating pairs of runs, compared metric by
// metric against the bounds in BENCHMARK.json.
//
//	make bench-ab BASE=HEAD~1 WORKLOAD=campaign-dcls PAIRS=10 [SEED=1]
//	go run ./cmd/bench-ab -base HEAD~1 -workload campaign-dcls [-pairs 10] [-seed 1] [-trace 0]
//
// Run it from the root of the repository. It checks BASE out as a git
// worktree under .bench_build/ab-base (removed again at exit), builds the
// perfbench binary of each side once, with the environment
// perfbench/run.sh builds it under, and runs the two binaries in turn for
// the run length BENCHMARK.json sets (run_seconds), base first in even
// pairs and the change first in odd ones. Every result
// line goes to a JSON-lines file under .bench_build/ab/. It then prints,
// per run, `correct` and the failed operations, and per metric each
// side's median and interquartile range, the change/base ratio of the
// medians, the pairs the change won out of the pairs in which both runs
// report the metric, whether the median difference
// exceeds the base's interquartile range, and, for an end-to-end metric,
// whether the change stays within the metric's bound.
//
// It exits 1 when a run fails or reports correct: false, or a metric is
// worse than its bound.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	buildDir = ".bench_build"
	baseTree = buildDir + "/ab-base"
	outDir   = buildDir + "/ab"
)

// metricSpec is one metric BENCHMARK.json lists.
type metricSpec struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmark struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

// result is the last line a perfbench run prints.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one of the two builds under comparison.
type side struct {
	name string // "base" or "change"
	rev  string // the commit, or "working tree"
	dir  string // checkout the binary runs in
	bin  string
	runs []result
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench-ab:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fl := flag.NewFlagSet("bench-ab", flag.ContinueOnError)
	fl.SetOutput(stderr)
	base := fl.String("base", "", "git revision to compare the working tree against")
	workload := fl.String("workload", "", "workload name (see BENCHMARK.json)")
	pairs := fl.Int("pairs", 10, "number of alternating run pairs")
	seed := fl.Int64("seed", 1, "workload seed")
	trace := fl.Int("trace", 0, "1 for traced runs, which report the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	switch {
	case *base == "" || *workload == "":
		return errors.New("-base and -workload are required")
	case *pairs < 1:
		return fmt.Errorf("-pairs must be at least 1, not %d", *pairs)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	var bm benchmark
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the root of the repository: %w", err)
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if bm.RunSeconds < 1 {
		return fmt.Errorf("BENCHMARK.json: run_seconds is %d, want at least 1", bm.RunSeconds)
	}
	specs := bm.EndToEnd
	if *trace == 1 {
		specs = bm.PerLayer
	}
	rev, err := git("rev-parse", "--verify", *base+"^{commit}")
	if err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// A worktree left by an interrupted run is replaced; without one
	// these two fail, harmlessly.
	_, _ = git("worktree", "remove", "--force", baseTree)
	_, _ = git("worktree", "prune")
	if _, err := git("worktree", "add", "--detach", baseTree, rev); err != nil {
		return err
	}
	defer func() {
		if _, rerr := git("worktree", "remove", "--force", baseTree); rerr != nil && err == nil {
			err = rerr
		}
	}()
	sides := []*side{
		{name: "base", rev: rev, dir: filepath.Join(root, baseTree)},
		{name: "change", rev: "working tree", dir: root},
	}
	for _, s := range sides {
		s.bin = filepath.Join(root, outDir, "perfbench-"+s.name)
		if err := build(root, s.dir, s.bin); err != nil {
			return fmt.Errorf("building %s: %w", s.name, err)
		}
	}
	logPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d-%s.jsonl",
		*workload, *seed, *trace, time.Now().UTC().Format("20060102T150405Z")))
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close()
	fmt.Fprintf(stdout, "bench-ab: %s seed %d, %d pairs of %d s runs (trace %d); base %s vs the working tree; results in %s\n",
		*workload, *seed, *pairs, bm.RunSeconds, *trace, rev[:12], logPath)
	runArgs := []string{"--workload", *workload, "--seed", strconv.FormatInt(*seed, 10),
		"--seconds", strconv.Itoa(bm.RunSeconds), "--trace", strconv.Itoa(*trace)}
	bad := false
	for p := 0; p < *pairs; p++ {
		order := sides
		if p%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, s := range order {
			line, res, err := runOnce(s, runArgs, stderr)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p, s.name, err)
			}
			rec, err := json.Marshal(map[string]any{"pair": p, "side": s.name, "rev": s.rev, "result": json.RawMessage(line)})
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(logf, "%s\n", rec); err != nil {
				return err
			}
			s.runs = append(s.runs, res)
			fmt.Fprintf(stdout, "pair %2d %-6s correct: %v, failed: %d\n", p, s.name, res.Correct, res.Failed)
			bad = bad || !res.Correct || res.Failed != 0
		}
	}
	if err := logf.Close(); err != nil {
		return err
	}
	if !report(stdout, specs, sides[0].runs, sides[1].runs) {
		bad = true
	}
	if bad {
		return errors.New("a run was not correct or a metric is beyond its bound")
	}
	return nil
}

// git runs git in the current directory and returns its trimmed output.
func git(args ...string) (string, error) {
	var errb bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// build compiles dir's perfbench into bin with the environment
// perfbench/run.sh uses, sharing root's build cache.
func build(root, dir, bin string) error {
	cache := filepath.Join(root, buildDir)
	for _, d := range []string{"gocache", "gotmp"} {
		if err := os.MkdirAll(filepath.Join(cache, d), 0o755); err != nil {
			return err
		}
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, ".")
	cmd.Dir = filepath.Join(dir, "perfbench")
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(cache, "gocache"), "GOTMPDIR="+filepath.Join(cache, "gotmp"),
		"GOMODCACHE="+filepath.Join(cache, "gomod"), "GOENV=off", "GOFLAGS=", "GOTOOLCHAIN=local",
		"GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%v: %s", err, out)
	}
	return nil
}

// runOnce runs one side's perfbench in its checkout and returns the
// run's last output line and its parsed result.
func runOnce(s *side, args []string, stderr io.Writer) (string, result, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.dir
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		stderr.Write(errb.Bytes())
		return "", result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	line := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return "", result{}, fmt.Errorf("reading the result line: %w", err)
	}
	return line, res, nil
}

// report prints the per-metric comparison and reports whether every
// metric with a bound stays within it. base[p] and change[p] are the two
// runs of pair p.
func report(w io.Writer, specs []metricSpec, base, change []result) bool {
	ok := true
	fmt.Fprintf(w, "\n%-32s %-28s %-28s %7s %6s %8s %s\n",
		"metric", "base median [IQR]", "change median [IQR]", "ratio", "won", ">IQR", "bound")
	for _, m := range specs {
		b, c := values(base, m.Name), values(change, m.Name)
		if len(b) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "%-32s not reported\n", m.Name)
			continue
		}
		bs, cs := summarize(b), summarize(c)
		// Wins count only pairs in which both runs report the metric,
		// and the denominator says how many that was.
		won, counted := 0, 0
		for p := range min(len(base), len(change)) {
			bv, bok := base[p].Metrics[m.Name]
			cv, cok := change[p].Metrics[m.Name]
			if bok && cok {
				counted++
				if better(m.Better, cv.Value, bv.Value) {
					won++
				}
			}
		}
		ratio := cs.median / bs.median
		beyond := "no"
		if d := cs.median - bs.median; d > bs.q3-bs.q1 || -d > bs.q3-bs.q1 {
			beyond = "yes"
		}
		verdict := "-"
		if m.Bound != nil {
			verdict = fmt.Sprintf("ok (%.2f)", *m.Bound)
			if worse(m.Better, bs.median, cs.median, *m.Bound) {
				verdict, ok = fmt.Sprintf("WORSE (%.2f)", *m.Bound), false
			}
		}
		fmt.Fprintf(w, "%-32s %-28s %-28s %7.3f %6s %8s %s\n",
			m.Name, bs.String(), cs.String(), ratio, fmt.Sprintf("%d/%d", won, counted), beyond, verdict)
	}
	return ok
}

func values(runs []result, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// better reports whether a is better than b for a metric whose better
// direction is dir ("higher" or "lower").
func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// worse reports whether the change median c is worse than the base
// median b by more than the relative bound.
func worse(dir string, b, c, bound float64) bool {
	if b == 0 {
		return false
	}
	if dir == "higher" {
		return (b-c)/b > bound
	}
	return (c-b)/b > bound
}

type summary struct{ q1, median, q3 float64 }

func (s summary) String() string {
	return fmt.Sprintf("%s [%s–%s]", num(s.median), num(s.q1), num(s.q3))
}

// num renders v with four significant digits, without an exponent.
func num(v float64) string {
	if v >= 1e4 || v <= -1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// summarize returns the quartiles of v, interpolated linearly between
// order statistics.
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return summary{q(0.25), q(0.5), q(0.75)}
}
