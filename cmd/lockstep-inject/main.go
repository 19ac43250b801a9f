// Command lockstep-inject runs a fault-injection campaign on the dual-CPU
// lockstep SR5 (Section IV-A methodology: every flip-flop, soft +
// stuck-at-0 + stuck-at-1 faults, random injection points in 64 intervals
// of every benchmark) and writes the experiment log as CSV for
// lockstep-train and lockstep-experiments.
//
// Usage:
//
//	lockstep-inject [-o campaign.csv] [-kernels a,b] [-cycles N]
//	                [-stride N] [-inj N] [-seed N] [-workers N] [-summary]
//	                [-mode dcls|slip:N|tmr]
//	                [-checkpoint ck.lsc] [-checkpoint-every N] [-resume]
//	                [-metrics snapshot.json] [-pprof addr] [-no-prune]
//
// The campaign is sharded over -workers parallel executors (default: all
// CPUs); the output is bit-identical for every worker count and with or
// without -metrics. Experiments run on the golden-trace replay path (one
// CPU simulated per cycle), and sites whose outcome the golden run's
// liveness analysis proves are recorded without simulating at all;
// -no-prune disables that static pruning (and the replay's stuck-at skip,
// which reasons with the same analysis): it produces the bit-identical
// dataset at a fraction of the throughput and exists as the
// differential-testing oracle. -metrics dumps the telemetry snapshot
// (per-kernel / per-kind outcome counters, detection-latency histograms,
// DSR bit-population stats) as JSON after the run; -pprof serves
// net/http/pprof and expvar live during it.
//
// -checkpoint makes the campaign crash-safe: an atomic resumable
// checkpoint is rewritten every -checkpoint-every completed experiments
// and once more on completion or on SIGINT/SIGTERM, which stop the
// campaign (exit 1). After a crash, kill or interrupt, rerun the same
// command with -resume to continue from the last checkpoint; the final
// dataset is byte-identical to an uninterrupted run at any worker count.
// -resume refuses (exit 1) on a corrupt checkpoint or when any
// schedule-relevant flag differs from the checkpointed campaign.
//
// Distributed campaigns shard the same plan across machines:
//
//	lockstep-inject -distribute 0.0.0.0:9090 [-lease-size N] [-lease-ttl D] ...
//	lockstep-inject -join http://HOST:9090/v1/campaigns/DIGEST [-workers N]
//
// -distribute turns this process into the campaign coordinator: it
// enumerates the plan, serves span leases over HTTP and merges completed
// spans (it simulates nothing itself); -join turns it into a worker that
// pulls leases, executes them on the pruned-replay path and sends the
// outcomes back. The merged dataset is byte-identical to a single-machine
// run at any worker count and any lease size; a worker killed mid-span
// merely lets its lease expire and the span is re-issued. -checkpoint and
// -resume work on the coordinator exactly as for a local campaign. It
// serves through lockstep-serve's HTTP edge: 64 requests in flight, a 10 s
// deadline, request metrics. A worker retries a 429 or 5xx with backoff.
// -lease-size and -lease-ttl are coordinator settings: the coordinator
// alone sizes every lease, and a worker ignores both. A worker of an
// older build that still asks for its own lease length is refused with
// 400 bad_request.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lockstep/internal/atomicfile"
	"lockstep/internal/dataset"
	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
	"lockstep/internal/server"
	"lockstep/internal/stats"
	"lockstep/internal/telemetry"
)

func main() {
	var (
		out       = flag.String("o", "campaign.csv", "output CSV path (\"-\" for stdout)")
		kernels   = flag.String("kernels", "", "comma-separated kernel names (default: full suite)")
		cycles    = flag.Int("cycles", 12000, "golden run horizon per kernel")
		stride    = flag.Int("stride", 1, "inject every Nth flip-flop")
		perKind   = flag.Int("inj", 1, "injections per (flop, fault kind, kernel)")
		seed      = flag.Int64("seed", 1, "campaign seed")
		mode      = flag.String("mode", "dcls", "lockstep mode: dcls, slip:N (redundant CPU N cycles behind) or tmr (voted triple with forward recovery)")
		workers   = flag.Int("workers", 0, "parallel experiment workers (0 = all CPUs)")
		summary   = flag.Bool("summary", true, "print a campaign summary to stderr")
		metrics   = flag.String("metrics", "", "write the telemetry JSON snapshot to this path after the run")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		noPrune   = flag.Bool("no-prune", false, "disable static fault-equivalence pruning and the replay's stuck-at skip (same dataset, slower; the differential-oracle path)")
		ckpt      = flag.String("checkpoint", "", "periodically write an atomic resumable checkpoint to this path")
		ckEvery   = flag.Int("checkpoint-every", 0, "completed experiments between checkpoint writes (0 = default 4096)")
		resume    = flag.Bool("resume", false, "resume from -checkpoint; refuses on a corrupt checkpoint or config mismatch")

		distribute = flag.String("distribute", "", "coordinate a distributed campaign: serve span leases on this address (e.g. 0.0.0.0:9090) and merge worker spans")
		join       = flag.String("join", "", "join a distributed campaign as a worker: coordinator campaign URL (http://host:port/v1/campaigns/DIGEST)")
		leaseSize  = flag.Int("lease-size", 0, "coordinator (-distribute) span lease length in plan indices (0 = 512); the coordinator alone sizes leases")
		leaseTTL   = flag.Duration("lease-ttl", 0, "coordinator lease TTL before an uncommitted span is re-issued (0 = 30s)")
		workerName = flag.String("worker-name", "", "stable worker identity for -join (default host-pid)")
	)
	flag.Parse()

	lsMode, err := lockstep.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockstep-inject:", err)
		os.Exit(1)
	}
	cfg := inject.Config{
		RunCycles:             *cycles,
		Intervals:             64,
		InjectionsPerFlopKind: *perKind,
		FlopStride:            *stride,
		Seed:                  *seed,
		Workers:               *workers,
		NoPrune:               *noPrune,
		Mode:                  lsMode,
		CheckpointPath:        *ckpt,
		CheckpointEvery:       *ckEvery,
		Resume:                *resume,
	}
	if *kernels != "" {
		for _, k := range strings.Split(*kernels, ",") {
			cfg.Kernels = append(cfg.Kernels, strings.TrimSpace(k))
		}
	}
	cfg.Progress = func(done, total int) {
		if done%5000 == 0 || done == total {
			fmt.Fprintf(os.Stderr, "\r%d/%d experiments", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	switch {
	case *distribute != "" && *join != "":
		err = fmt.Errorf("-distribute and -join are mutually exclusive (a process is either the coordinator or a worker)")
	case *distribute != "":
		err = runDistribute(cfg, *distribute, *leaseSize, *leaseTTL, *out, *metrics, *summary, os.Stderr)
	case *join != "":
		err = runJoin(*join, *workerName, *workers, *metrics, *summary, os.Stderr)
	default:
		err = run(cfg, *out, *metrics, *pprofAddr, *summary, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockstep-inject:", err)
		os.Exit(1)
	}
}

// onInterrupt installs a campaign's SIGINT/SIGTERM handler: the first
// signal prints one line to errw and closes cancel, and stop removes the
// handler. Installed before start-up, it makes a signal that arrives
// during start-up wait and then cancel the campaign gracefully, final
// checkpoint included, instead of killing the process.
func onInterrupt(errw io.Writer, who string, checkpoint bool) (cancel <-chan struct{}, stop func()) {
	line := who + ": interrupted"
	if checkpoint {
		line += "; writing final checkpoint"
	}
	sig, c := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			fmt.Fprintln(errw, line)
			close(c)
		}
	}()
	// Once Stop returns no signal reaches sig: closing it ends the goroutine.
	return c, func() {
		signal.Stop(sig)
		close(sig)
	}
}

// runDistribute coordinates a distributed campaign: it serves span
// leases on addr and merges worker submissions; it simulates nothing
// itself. SIGINT/SIGTERM stop leasing and — with -checkpoint — persist a
// final checkpoint, so rerunning with -resume continues the campaign.
func runDistribute(cfg inject.Config, addr string, leaseSize int, leaseTTL time.Duration, out, metricsPath string, summary bool, errw io.Writer) error {
	if err := checkOutput(out); err != nil {
		return err
	}
	cancel, stop := onInterrupt(errw, "coordinator", cfg.CheckpointPath != "")
	defer stop()
	co, err := inject.NewCoordinator(cfg, inject.DistConfig{LeaseSize: leaseSize, LeaseTTL: leaseTTL})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := server.NewHTTPServer(server.NewDistributor(co))
	go srv.Serve(ln)
	defer srv.Close()
	done, total := co.Progress()
	fmt.Fprintf(errw, "coordinator: campaign %s, %d/%d experiments merged\n", co.Digest(), done, total)
	fmt.Fprintf(errw, "coordinator: join with: lockstep-inject -join http://%s/v1/campaigns/%s\n", ln.Addr(), co.Digest())

	waitErr := co.WaitDone(cancel)
	if waitErr == nil {
		// Keep serving until the stragglers have observed LeaseDone
		// (bounded: a crashed worker never polls again), so workers
		// that did not land the final commit exit 0 instead of dying
		// on connection-refused against a vanished coordinator.
		co.DrainWorkers(2 * time.Second)
	}
	if summary {
		fmt.Fprintf(errw, "coordinator: %s\n", co.Summary())
	}
	if metricsPath != "" {
		if err := telemetry.Default.WriteJSONFile(metricsPath); err != nil {
			return err
		}
	}
	if waitErr != nil {
		return waitErr
	}
	ds, st, err := co.Result()
	if err != nil {
		return err
	}
	if err := writeDataset(ds, out); err != nil {
		return err
	}
	if summary {
		fmt.Fprintf(errw, "throughput: %s\n", st)
	}
	return nil
}

// runJoin executes leases as a distributed-campaign worker until the
// coordinator reports the campaign done. Workers produce no local
// dataset — outcomes go to the coordinator — so -o is unused here.
func runJoin(url, name string, workers int, metricsPath string, summary bool, errw io.Writer) error {
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := server.RunWorker(ctx, server.WorkerOptions{
		URL: url, Name: name, InjectWorkers: workers,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(errw, "worker %s: %s\n", name, fmt.Sprintf(format, args...))
		},
	})
	if summary {
		fmt.Fprintf(errw, "worker %s: %d spans (%d experiments, %d pruned, %d duplicate, %d expired), busy %v of %v\n",
			name, st.Spans, st.Experiments, st.Pruned, st.Duplicates, st.Expired,
			st.Busy.Round(time.Millisecond), st.Elapsed.Round(time.Millisecond))
	}
	if metricsPath != "" {
		if merr := telemetry.Default.WriteJSONFile(metricsPath); merr != nil && err == nil {
			err = merr
		}
	}
	return err
}

// checkOutput fails before any experiment runs when the dataset could
// not be written to out.
func checkOutput(out string) error {
	if out == "-" {
		return nil
	}
	return atomicfile.CheckDir(out)
}

// writeDataset writes the campaign CSV to out, or streams it to stdout
// for "-". A file is replaced atomically (dataset.WriteCSVFile): a failed
// write leaves no torn dataset behind and makes the command fail.
func writeDataset(ds *dataset.Dataset, out string) error {
	if out == "-" {
		return ds.WriteCSV(os.Stdout)
	}
	return ds.WriteCSVFile(out)
}

// run executes the campaign and writes the CSV log, the optional
// telemetry snapshot, and the summary lines (to errw). SIGINT/SIGTERM
// cancel the campaign, and with -checkpoint persist a final checkpoint,
// so rerunning with -resume continues it.
func run(cfg inject.Config, out, metricsPath, pprofAddr string, summary bool, errw io.Writer) error {
	if err := checkOutput(out); err != nil {
		return err
	}
	cancel, stop := onInterrupt(errw, "lockstep-inject", cfg.CheckpointPath != "")
	defer stop()
	cfg.Cancel = cancel
	if pprofAddr != "" {
		url, err := telemetry.ServeDebug(pprofAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(errw, "debug server: %s/debug/pprof/ (metrics at /debug/vars)\n", url)
	}

	ds, st, err := inject.RunStats(cfg)
	if err != nil {
		return err
	}
	if err := writeDataset(ds, out); err != nil {
		return err
	}

	if metricsPath != "" {
		if err := telemetry.Default.WriteJSONFile(metricsPath); err != nil {
			return err
		}
	}

	if summary {
		man := ds.Manifested()
		var times []int
		for _, r := range man.Records {
			times = append(times, r.ManifestationCycles())
		}
		fmt.Fprintf(errw,
			"campaign: %d experiments, %d manifested (%.1f%%), %d distinct diverged SC sets, manifestation time %s cyc\n",
			ds.Len(), man.Len(), 100*float64(man.Len())/float64(ds.Len()),
			ds.DistinctDSRs(), stats.SummarizeInts(times))
		fmt.Fprintf(errw, "throughput: %s\n", st)
	}
	return nil
}
