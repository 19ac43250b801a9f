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
//	                     [-metrics snapshot.json] [-pprof addr]
//	                     [-mode dcls|slip:N|tmr]
//
// The campaign shards across -workers parallel executors (default: all
// CPUs). The dataset is bit-identical for every worker count, so -workers
// only changes wall-clock time; the throughput line reports it.
//
// A campaign that needs checkpoints, resumption or the unpruned
// differential-oracle path runs under lockstep-inject, which owns those
// flags, and -data then reads its CSV. These lockstep-inject flags write
// each scale's campaign byte for byte (give both commands the same
// -mode):
//
//	small    -kernels ttsprk,rspeed,matrix -cycles 8000 -stride 6
//	default  no flags
//	full     -cycles 20000 -inj 2
//
// Experiments: table1 units table2 table3 table4 fig4 fig5 fig11 fig12
// fig13 fig14 fig15 fig16 onoffchip lbist spread ablation window summary
// all. They print in a fixed order whatever the order of -exp; an
// unknown name exits 1, before any campaign runs, and lists the known
// ones.
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
	"io"
	"os"
	"slices"
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
	scaleName string
	expList   string
	dataPath  string
	savePath  string
	htmlPath  string
	metrics   string
	pprofAddr string
	workers   int
	mode      string
	quiet     bool
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
	flag.StringVar(&o.mode, "mode", "dcls", "lockstep mode the campaign runs under: dcls, slip:N or tmr")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "lockstep-experiments:", err)
		os.Exit(1)
	}
}

// experiment is one table or figure -exp selects by any of its names.
type experiment struct {
	names []string
	print func(ctx *experiments.Context, out io.Writer) error
}

// catalog lists every experiment in the order they print.
var catalog = []experiment{
	{[]string{"summary"}, func(c *experiments.Context, w io.Writer) error { experiments.PrintSummary(w, c.Summary()); return nil }},
	{[]string{"table1"}, func(c *experiments.Context, w io.Writer) error { c.Table1().Print(w); return nil }},
	{[]string{"units"}, func(c *experiments.Context, w io.Writer) error {
		c.Units(core.Coarse7).Print(w)
		c.Units(core.Fine13).Print(w)
		return nil
	}},
	{[]string{"table2"}, func(c *experiments.Context, w io.Writer) error { c.Table2().Print(w); return nil }},
	{[]string{"table3"}, func(c *experiments.Context, w io.Writer) error { c.Table3().Print(w); return nil }},
	{[]string{"table4"}, func(c *experiments.Context, w io.Writer) error { experiments.PrintTable4(w, c.Table4()); return nil }},
	{[]string{"fig4"}, func(c *experiments.Context, w io.Writer) error { c.FigUnitBC(true).Print(w); return nil }},
	{[]string{"fig5"}, func(c *experiments.Context, w io.Writer) error { c.FigUnitBC(false).Print(w); return nil }},
	{[]string{"fig11"}, func(c *experiments.Context, w io.Writer) error {
		c.Compare(core.Coarse7, sbist.OnChipTableAccess).Print(w)
		return nil
	}},
	{[]string{"onoffchip"}, func(c *experiments.Context, w io.Writer) error { c.OnOffChipAnalysis().Print(w); return nil }},
	{[]string{"fig12", "fig13"}, func(c *experiments.Context, w io.Writer) error { c.SweepTopK(core.Coarse7).Print(w); return nil }},
	{[]string{"fig14"}, func(c *experiments.Context, w io.Writer) error {
		c.Compare(core.Fine13, sbist.OnChipTableAccess).Print(w)
		return nil
	}},
	{[]string{"fig15", "fig16"}, func(c *experiments.Context, w io.Writer) error { c.SweepTopK(core.Fine13).Print(w); return nil }},
	{[]string{"lbist"}, func(c *experiments.Context, w io.Writer) error {
		c.CompareLBIST(core.Coarse7, sbist.OffChipTableAccess).Print(w)
		return nil
	}},
	{[]string{"spread"}, func(c *experiments.Context, w io.Writer) error { c.SpreadAnalysis().Print(w); return nil }},
	{[]string{"ablation"}, func(c *experiments.Context, w io.Writer) error { c.AblationDynamic().Print(w); return nil }},
	{[]string{"window"}, func(c *experiments.Context, w io.Writer) error {
		sw, err := c.SweepStopWindow(nil)
		if err != nil {
			return err
		}
		sw.Print(w)
		return nil
	}},
}

// selectExperiments resolves a comma-separated -exp list into the
// catalog entries it names, in catalog order. An unknown name is an
// error that lists the known ones.
func selectExperiments(list string) ([]experiment, error) {
	known := []string{"all"}
	for _, e := range catalog {
		known = append(known, e.names...)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" {
			continue
		}
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("unknown experiment %q in -exp (known: %s)", name, strings.Join(known, ", "))
		}
		want[name] = true
	}
	var sel []experiment
	for _, e := range catalog {
		if want["all"] || slices.ContainsFunc(e.names, func(n string) bool { return want[n] }) {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("no experiment in -exp %q", list)
	}
	return sel, nil
}

func run(o options) error {
	sel, err := selectExperiments(o.expList)
	if err != nil {
		return err
	}
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
	if cfg.Mode, err = lockstep.ParseMode(o.mode); err != nil {
		return err
	}

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

	for _, e := range sel {
		if err := e.print(ctx, os.Stdout); err != nil {
			return err
		}
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
