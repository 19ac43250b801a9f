// Command perfbench is the repository's benchmark. One run measures one
// workload and prints, as the last line of its standard output, a JSON
// object with the run's correctness, the operations it attempted and
// failed, and its metrics:
//
//	bash perfbench/run.sh --workload campaign-dcls --seed 1 --seconds 25 --trace 0
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write every span to
// .bench_build/traces/. BENCHMARK.json at the root of the repository
// lists the workloads and metrics. The line before the result holds the
// run's provenance and per-stage diagnostics.
//
// A run executes two stages, each in its own process: the campaign stage
// runs the workload's fault-injection campaign and leaves its dataset,
// and the serve stage trains a table from that dataset through an
// in-process lockstep-serve and drives a closed predict loop against it.
//
// "perfbench pins" recomputes pins.go, the dataset digests and outcome
// counts every campaign seed must reproduce.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves in the checkout.
const buildDir = ".bench_build"

// primaryShare is the part of the run's seconds its primary stage gets.
const primaryShare = 0.6

// runTimeout bounds a whole run, both stages included.
const runTimeout = 170 * time.Second

// stageGOGC is the GC target every stage process runs with.
const stageGOGC = "100"

// endToEnd and perLayer are the metrics BENCHMARK.json names, in order.
var endToEnd = []string{
	"setup_s", "campaign_exp_per_s", "predict_p50_ms", "predict_p95_ms",
	"predict_cpu_us_per_req", "peak_rss_mb",
}

var perLayer = []string{
	"inject.plan_s", "inject.phase_setup_s", "inject.phase_prune_s", "inject.phase_simulate_s",
	"inject.phase_finish_s", "inject.engine_overhead_s", "inject.plan_replay_share",
	"inject.pruned_ratio", "inject.oracle_checked", "inject.failures",
	"inject.checkpoint_writes", "inject.checkpoint_write_ms", "inject.checkpoint_bytes",
	"lockstep.golden_s", "lockstep.golden_ns_per_cycle", "lockstep.trace_bytes", "lockstep.prune_ns",
	"lockstep.replay_calls", "lockstep.replay_busy_s", "lockstep.replay_us_p50", "lockstep.replay_us_p99",
	"lockstep.replay_us_masked", "lockstep.replay_us_detected_soft", "lockstep.replay_us_detected_hard",
	"lockstep.detected", "lockstep.converged", "lockstep.masked",
	"cpu.step_ns",
	"dataset.write_csv_ms", "dataset.csv_bytes", "dataset.read_csv_ms",
	"core.train_ms", "core.table_sets", "core.predict_ns",
	"server.new_ms", "server.tables_create_ms", "server.handler_us_p50", "server.handler_share",
	"server.allocs_per_req", "server.non200",
	"client.floor_us_p50", "client.floor_cpu_us_per_req", "client.req_per_s", "client.p99_ms", "client.samples",
	"trace.campaign_exp_per_s_ratio", "trace.predict_p50_ratio",
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "stage":
			os.Exit(stageMain(os.Args[2:], os.Stdout, os.Stderr))
		case "pins":
			os.Exit(pinsMain(os.Stdout, os.Stderr))
		}
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fl.Int64("seed", 1, "workload seed; the same seed makes the same inputs")
	secs := fl.Int("seconds", 20, "how long the run measures")
	traced := fl.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *secs < 1:
		return fmt.Errorf("--seconds must be at least 1, not %d", *secs)
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traced)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	total := time.Duration(*secs) * time.Second
	reports := map[string]*stageReport{}
	rssMB := map[string]float64{}
	for _, stage := range []string{stageCampaign, stageServe} {
		budget := time.Duration(float64(total) * (1 - primaryShare))
		if stage == w.primary {
			budget = time.Duration(float64(total) * primaryShare)
		}
		rep, rss, err := runStage(ctx, exe, stage, w, *seed, budget, *traced, dir, stderr)
		if err != nil {
			return fmt.Errorf("%s stage: %w", stage, err)
		}
		reports[stage], rssMB[stage] = rep, rss
	}

	prov := provenance(w, *seed, *secs, *traced)
	var res result
	stages := map[string]any{}
	for stage, rep := range reports {
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		rep.Info["attempted"], rep.Info["failed"] = rep.Attempted, rep.Failed
		rep.Info["peak_rss_mb"] = rssMB[stage]
		if len(rep.Errors) > 0 {
			rep.Info["errors"] = rep.Errors
			for _, e := range rep.Errors {
				fmt.Fprintf(stderr, "perfbench: %s stage check failed: %s\n", stage, e)
			}
		}
		stages[stage] = rep.Info
	}
	res.Correct = res.Failed == 0
	if *traced == 1 {
		spans := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, *seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return err
		}
		if err := os.Rename(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
			return err
		}
		prov["span_file"] = spans
	}
	if res.Metrics, err = resultMetrics(w, reports, rssMB, *traced == 1); err != nil {
		return err
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"provenance": prov, "stages": stages}); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// resultMetrics picks a run's metrics from its stage reports: the
// per-layer ones for a traced run, else the end-to-end ones, of which the
// primary stage defines setup_s and peak_rss_mb.
func resultMetrics(w workloadSpec, reports map[string]*stageReport, rssMB map[string]float64, traced bool) (map[string]metric, error) {
	out := map[string]metric{}
	names := perLayer
	if !traced {
		names = endToEnd
		out["setup_s"] = reports[w.primary].Metrics[w.primary+"_setup_s"]
		out["peak_rss_mb"] = metric{Value: rssMB[w.primary], Unit: "MB"}
	}
	for _, name := range names {
		if _, done := out[name]; done {
			continue
		}
		m, ok := reports[stageCampaign].Metrics[name]
		if !ok {
			m, ok = reports[stageServe].Metrics[name]
		}
		if !ok {
			return nil, fmt.Errorf("no stage reported metric %s", name)
		}
		out[name] = m
	}
	return out, nil
}

// runStage runs one stage in a child process of this binary with GC and
// parallelism pinned, and returns its report and peak resident memory.
func runStage(ctx context.Context, exe, stage string, w workloadSpec, seed int64, budget time.Duration, traced int, dir string, stderr io.Writer) (*stageReport, float64, error) {
	cmd := exec.CommandContext(ctx, exe, "stage", "-stage", stage, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-budget", budget.String(), "-trace", strconv.Itoa(traced), "-dir", dir)
	cmd.Env = append(os.Environ(), "GOGC="+stageGOGC, "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	// The stage dies with the run, should the run itself be killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, err
	}
	var rep stageReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("reading stage report: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, errors.New("no resource usage for the stage process")
	}
	return &rep, float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// stageMain is the child process of one stage.
func stageMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench stage", flag.ContinueOnError)
	fl.SetOutput(stderr)
	stage := fl.String("stage", "", "campaign or serve")
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "workload seed")
	budget := fl.Duration("budget", 10*time.Second, "how long the stage measures")
	traced := fl.Int("trace", 0, "1 to record spans")
	dir := fl.String("dir", "", "the run's scratch directory")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	var rep *stageReport
	var err error
	switch *stage {
	case stageCampaign:
		rep, err = campaignStage(w, *seed, *budget, *dir, tr, pinned[w.campaign.pin][campaignSeed(*seed)])
	case stageServe:
		rep, err = serveStage(w, *seed, *budget, *dir, tr, nil)
	default:
		err = fmt.Errorf("unknown stage %q", *stage)
	}
	if err == nil && tr != nil {
		printSelfTimes(stderr, *stage, selfTimes(tr.spans))
		err = tr.writeSpans(filepath.Join(*dir, "spans.jsonl"), *stage)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s stage: %v\n", *stage, err)
		return 1
	}
	return 0
}

// provenance records what produced a result.
func provenance(w workloadSpec, seed int64, secs, traced int) map[string]any {
	return map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"campaign_seed": campaignSeed(seed),
		"held_out_seed": w.heldOut,
		"seconds":       secs,
		"trace":         traced,
		"commit":        commit(),
		"source_sha256": sourceDigest(),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.NumCPU(),
		"gogc":          stageGOGC,
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
	}
}

// commit is the checkout's git commit, when it is a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest identifies the code under test where no commit does: the
// SHA-256 over every Go source and module file of the checkout.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == buildDir || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
