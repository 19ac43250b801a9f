// Command lockstep-experiments reproduces the paper's evaluation: it runs
// (or loads) a fault-injection campaign and regenerates every data-bearing
// table and figure, printing measured values side by side with the paper's
// published numbers.
//
// Usage:
//
//	lockstep-experiments [-scale small|default|full] [-exp all|table1|...]
//	                     [-data campaign.csv] [-save campaign.csv]
//	                     [-html report.html] [-workers N] [-quiet]
//	                     [-checkpoint ck.lsc] [-checkpoint-every N] [-resume]
//	                     [-metrics snapshot.json] [-pprof addr]
//	                     [-no-prune] [-mode dcls|slip:N|tmr]
//
// The campaign shards across -workers parallel executors (default: all
// CPUs). The dataset is bit-identical for every worker count, so -workers
// only changes wall-clock time; the throughput line reports it.
// -no-prune disables the static fault-equivalence pruning of
// provably-masked sites and the replay's stuck-at skip, which reasons
// with the same analysis; it produces the bit-identical dataset at lower
// throughput and is kept as the differential-testing oracle.
//
// -checkpoint makes the campaign phase crash-safe (an atomic resumable
// checkpoint every -checkpoint-every completed experiments); after an
// interruption, rerunning with -resume continues the campaign from the
// checkpoint and still reproduces the byte-identical dataset, then runs
// the selected experiments. -resume refuses on a corrupt checkpoint or
// when any schedule-relevant flag differs from the checkpointed campaign.
//
// Experiments: table1 units table2 table3 table4 fig4 fig5 fig11 fig12
// fig13 fig14 fig15 fig16 onoffchip lbist spread ablation window summary
// all.
// ("window" re-runs reduced campaigns at several checker stop-latency
// settings, so it takes noticeably longer than the others.) Figures
// 12/13 (and 15/16) share one computation and print together. -html
// additionally renders every table and figure into a self-contained HTML
// page with SVG charts.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"lockstep/internal/atomicfile"
	"lockstep/internal/dataset"
	"lockstep/internal/experiments"
	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
	"lockstep/internal/report"
	"lockstep/internal/sbist"
	"lockstep/internal/telemetry"

	"lockstep/internal/core"
)

// options carries every CLI knob of one invocation.
type options struct {
	scaleName  string
	expList    string
	dataPath   string
	savePath   string
	htmlPath   string
	metrics    string
	pprofAddr  string
	checkpoint string
	ckptEvery  int
	resume     bool
	workers    int
	noPrune    bool
	mode       string
	quiet      bool
}

func main() {
	var o options
	flag.StringVar(&o.scaleName, "scale", "default", "campaign scale: small, default or full")
	flag.StringVar(&o.expList, "exp", "all", "comma-separated experiments to run (see doc)")
	flag.StringVar(&o.dataPath, "data", "", "load campaign log from CSV instead of re-running")
	flag.StringVar(&o.savePath, "save", "", "save the campaign log to CSV")
	flag.StringVar(&o.htmlPath, "html", "", "also write a self-contained HTML report with SVG charts")
	flag.IntVar(&o.workers, "workers", 0, "parallel campaign workers (0 = all CPUs)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress progress output")
	flag.StringVar(&o.metrics, "metrics", "", "write the telemetry JSON snapshot to this path after the run")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.BoolVar(&o.noPrune, "no-prune", false, "disable static fault-equivalence pruning and the replay's stuck-at skip (same dataset, slower; the differential-oracle path)")
	flag.StringVar(&o.mode, "mode", "dcls", "lockstep mode the campaign runs under: dcls, slip:N or tmr")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "periodically write an atomic resumable campaign checkpoint to this path")
	flag.IntVar(&o.ckptEvery, "checkpoint-every", 0, "completed experiments between checkpoint writes (0 = default 4096)")
	flag.BoolVar(&o.resume, "resume", false, "resume the campaign from -checkpoint; refuses on a corrupt checkpoint or config mismatch")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "lockstep-experiments:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	quiet := o.quiet
	if o.pprofAddr != "" {
		url, err := telemetry.ServeDebug(o.pprofAddr)
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "debug server: %s/debug/pprof/ (metrics at /debug/vars)\n", url)
		}
	}
	scale, err := experiments.ScaleByName(o.scaleName)
	if err != nil {
		return err
	}
	cfg := &scale.Config
	cfg.Workers = o.workers
	cfg.NoPrune = o.noPrune
	if cfg.Mode, err = lockstep.ParseMode(o.mode); err != nil {
		return err
	}
	cfg.CheckpointPath = o.checkpoint
	cfg.CheckpointEvery = o.ckptEvery
	cfg.Resume = o.resume

	var ctx *experiments.Context
	if o.dataPath != "" {
		f, err := os.Open(o.dataPath)
		if err != nil {
			return err
		}
		ds, err := dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		ctx, err = experiments.NewContextFromData(scale, ds)
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("loaded %d experiments from %s\n", ds.Len(), o.dataPath)
		}
	} else {
		progress := func(done, total int) {
			if quiet {
				return
			}
			if done%5000 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d experiments", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		if !quiet {
			total, err := cfg.Total()
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "running %s campaign (%d experiments)...\n",
				scale.Name, total)
		}
		var st inject.Stats
		ctx, st, err = experiments.NewContextStats(scale, progress)
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "campaign throughput: %s\n", st)
		}
	}

	if o.savePath != "" {
		if err := ctx.DS.WriteCSVFile(o.savePath); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("saved campaign log to %s\n", o.savePath)
		}
	}

	if o.htmlPath != "" {
		var buf bytes.Buffer
		if err := report.Generate(&buf, ctx); err != nil {
			return err
		}
		if err := atomicfile.Write(o.htmlPath, buf.Bytes()); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("wrote HTML report to %s\n", o.htmlPath)
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(o.expList, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	sel := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}
	ran := false
	out := os.Stdout

	if sel("summary") {
		experiments.PrintSummary(out, ctx.Summary())
		ran = true
	}
	if sel("table1") {
		ctx.Table1().Print(out)
		ran = true
	}
	if sel("units") {
		ctx.Units(core.Coarse7).Print(out)
		ctx.Units(core.Fine13).Print(out)
		ran = true
	}
	if sel("table2") {
		ctx.Table2().Print(out)
		ran = true
	}
	if sel("table3") {
		ctx.Table3().Print(out)
		ran = true
	}
	if sel("table4") {
		experiments.PrintTable4(out, ctx.Table4())
		ran = true
	}
	if sel("fig4") {
		ctx.FigUnitBC(true).Print(out)
		ran = true
	}
	if sel("fig5") {
		ctx.FigUnitBC(false).Print(out)
		ran = true
	}
	if sel("fig11") {
		ctx.Compare(core.Coarse7, sbist.OnChipTableAccess).Print(out)
		ran = true
	}
	if sel("onoffchip") {
		ctx.OnOffChipAnalysis().Print(out)
		ran = true
	}
	if sel("fig12", "fig13") {
		ctx.SweepTopK(core.Coarse7).Print(out)
		ran = true
	}
	if sel("fig14") {
		ctx.Compare(core.Fine13, sbist.OnChipTableAccess).Print(out)
		ran = true
	}
	if sel("fig15", "fig16") {
		ctx.SweepTopK(core.Fine13).Print(out)
		ran = true
	}
	if sel("lbist") {
		ctx.CompareLBIST(core.Coarse7, sbist.OffChipTableAccess).Print(out)
		ran = true
	}
	if sel("spread") {
		ctx.SpreadAnalysis().Print(out)
		ran = true
	}
	if sel("ablation") {
		ctx.AblationDynamic().Print(out)
		ran = true
	}
	if sel("window") {
		sw, err := ctx.SweepStopWindow(nil)
		if err != nil {
			return err
		}
		sw.Print(out)
		ran = true
	}
	if !ran {
		return fmt.Errorf("no known experiment in %q", o.expList)
	}
	if o.metrics != "" {
		if err := telemetry.Default.WriteJSONFile(o.metrics); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("wrote telemetry snapshot to %s\n", o.metrics)
		}
	}
	return nil
}
