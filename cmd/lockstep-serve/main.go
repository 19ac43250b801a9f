// Command lockstep-serve exposes the lockstep tooling as a long-running
// HTTP service: online error-correlation prediction from a trained table
// and a crash-safe fault-injection campaign job API.
//
// Usage:
//
//	lockstep-serve [-addr host:port] [-table table.lspt] [-data dir]
//	               [-campaign-workers N] [-inject-workers N]
//	               [-lease-size N] [-lease-ttl D]
//	               [-max-inflight N] [-max-batch N]
//	               [-request-timeout D] [-drain-timeout D]
//	               [-metrics snapshot.json] [-pprof addr]
//
// With -table, POST /v1/predict maps DSR snapshots through the trained
// prediction table (the paper's DSR → PTAR → table-entry flow) to a
// predicted unit test order and soft/hard verdict. With -data, the
// campaign API (POST /v1/campaigns, GET /v1/campaigns/{id}[/dataset])
// runs inject campaigns on a bounded worker pool; every job is
// checkpointed into the data directory, so a killed or drained server
// resumes its jobs on restart and the final datasets are byte-identical
// to uninterrupted runs. A campaign submitted with distribute:true runs
// as a lease coordinator instead: worker nodes (`lockstep-inject -join`)
// pull span leases from POST /v1/campaigns/{id}/leases, execute them,
// and push their outcomes back to POST /v1/campaigns/{id}/spans as
// JSON; the server renders the dataset rows from its own plan.
// -lease-size and -lease-ttl set the span length and re-issue timeout of
// every distributed campaign; a submission cannot override them.
//
// SIGINT/SIGTERM drains gracefully: running campaigns stop at the next
// experiment boundary and write a final checkpoint, in-flight HTTP
// requests finish, and the process exits 0. Restarting with the same
// -data resumes automatically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lockstep/internal/core"
	"lockstep/internal/server"
	"lockstep/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8172", "listen address (port 0 picks a free port)")
		tablePath  = flag.String("table", "", "trained prediction table image (lockstep-train -o); empty disables /v1/predict")
		dataDir    = flag.String("data", "", "campaign job directory (manifests, checkpoints, datasets); empty disables the campaign API")
		campaigns  = flag.Int("campaign-workers", 1, "concurrent campaign jobs")
		injWorkers = flag.Int("inject-workers", 0, "per-job experiment worker cap (0 = all CPUs)")
		leaseSize  = flag.Int("lease-size", 0, "distributed campaigns: default span lease length in plan indices (0 = 512)")
		leaseTTL   = flag.Duration("lease-ttl", 0, "distributed campaigns: lease TTL before an uncommitted span is re-issued (0 = 30s)")
		inflight   = flag.Int("max-inflight", 64, "concurrent HTTP requests before answering 429")
		maxBatch   = flag.Int("max-batch", 1024, "max DSRs in one predict request")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request deadline (504 when exceeded)")
		drainTime  = flag.Duration("drain-timeout", time.Minute, "graceful shutdown budget for draining jobs and requests")
		metrics    = flag.String("metrics", "", "write the telemetry JSON snapshot to this path on shutdown")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and expvar on this address")
	)
	flag.Parse()

	opt := server.Options{
		DataDir:         *dataDir,
		CampaignWorkers: *campaigns,
		InjectWorkers:   *injWorkers,
		LeaseSize:       *leaseSize,
		LeaseTTL:        *leaseTTL,
		MaxInFlight:     *inflight,
		MaxBatch:        *maxBatch,
		RequestTimeout:  *reqTimeout,
	}
	if err := run(opt, *addr, *tablePath, *metrics, *pprofAddr, *drainTime, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lockstep-serve:", err)
		os.Exit(1)
	}
}

// run builds the service, serves it until SIGINT/SIGTERM, then drains:
// campaigns checkpoint and stop, in-flight requests finish, the optional
// metrics snapshot is written, and run returns nil for a clean exit 0.
func run(opt server.Options, addr, tablePath, metricsPath, pprofAddr string, drainTimeout time.Duration, errw io.Writer) error {
	// The handler goes in before anything starts: a signal that arrives
	// during start-up waits in sig and then drains the server, instead of
	// killing the process with no checkpoint.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if tablePath != "" {
		f, err := os.Open(tablePath)
		if err != nil {
			return err
		}
		table, err := core.ReadTable(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading table %s: %w", tablePath, err)
		}
		opt.Table = table
		fmt.Fprintf(errw, "lockstep-serve: loaded table %s (%s, %d sets, %d table bits)\n",
			tablePath, table.Gran, table.Dict.Len(), table.TableBits())
	}
	if pprofAddr != "" {
		url, err := telemetry.ServeDebug(pprofAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(errw, "lockstep-serve: debug server: %s/debug/pprof/\n", url)
	}

	srv, err := server.New(opt)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "lockstep-serve: listening on http://%s\n", ln.Addr())
	if opt.DataDir == "" {
		fmt.Fprintln(errw, "lockstep-serve: campaign API disabled (no -data)")
	}
	// The active version may differ from -table: a table activated in a
	// previous run is persisted under -data and wins on restart.
	if v := srv.TableVersion(); v != "" {
		fmt.Fprintf(errw, "lockstep-serve: serving table version %s\n", v)
	} else {
		fmt.Fprintln(errw, "lockstep-serve: /v1/predict disabled until a table is loaded (use -table or POST /v1/tables)")
	}

	hs := server.NewHTTPServer(srv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Fprintf(errw, "lockstep-serve: %v: draining (campaigns checkpoint and stop, requests finish)\n", s)
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	if metricsPath != "" {
		if err := telemetry.Default.WriteJSONFile(metricsPath); err != nil {
			return err
		}
	}
	fmt.Fprintln(errw, "lockstep-serve: drained; bye")
	return nil
}
