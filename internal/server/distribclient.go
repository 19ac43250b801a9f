// Worker-node client for distributed campaigns: the `lockstep-inject
// -join` loop. RunWorker pulls span leases from a coordinator (a
// lockstep-serve campaign job or a `lockstep-inject -distribute`
// coordinator — the endpoints are identical), reconstructs the campaign
// from the coordinator's fingerprint, executes each leased span through
// the same pruned-replay path a local campaign uses, and sends the
// outcomes back as JSON; the coordinator renders the dataset rows. The
// worker holds no campaign state worth preserving: killing it at any
// instant costs at most its outstanding lease, which the coordinator
// re-issues after the TTL.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"lockstep/internal/inject"
)

// WorkerOptions configures one RunWorker loop. The coordinator alone
// sizes each lease.
type WorkerOptions struct {
	// URL is the coordinator's campaign URL:
	// http://host:port/v1/campaigns/<digest>. The trailing path segment
	// is the campaign digest the worker authenticates with.
	URL string
	// Name is the worker's stable identity; the coordinator uses it for
	// lease affinity and per-worker throughput gauges.
	Name string
	// InjectWorkers is the in-span experiment parallelism (0 = all CPUs).
	InjectWorkers int
	// Logf, if non-nil, receives one line per lease and per retry.
	Logf func(format string, args ...any)

	// gate, when non-nil, is held while a span executes. Tests use it to
	// time-slice several in-process workers on one machine, so the test
	// host may have a single core.
	gate *sync.Mutex
}

// WorkerStats reports what one RunWorker loop did.
type WorkerStats struct {
	Spans       int // spans committed (duplicates included)
	Experiments int // outcomes produced and accepted
	Pruned      int // experiments resolved by static pruning
	Duplicates  int // spans the coordinator already had
	Expired     int // spans refused because the lease had been re-issued
	// Busy is wall clock spent executing spans (golden builds included);
	// Elapsed is the whole loop. Busy/Elapsed ≈ worker utilization.
	Busy    time.Duration
	Elapsed time.Duration
}

// RunWorker joins a distributed campaign and executes leases until the
// coordinator reports the campaign done, ctx is canceled, or a fatal
// error (fingerprint mismatch, unknown campaign, coordinator gone for
// good, or an execution error that would poison the dataset).
func RunWorker(ctx context.Context, opt WorkerOptions) (st WorkerStats, err error) {
	// Named returns: the deferred stamp must land in the value the
	// caller sees, not in a local copied out before defers run.
	start := time.Now()
	defer func() { st.Elapsed = time.Since(start) }()

	url := strings.TrimRight(opt.URL, "/")
	digest := url[strings.LastIndexByte(url, '/')+1:]
	if digest == "" {
		return st, &inject.ConfigError{Field: "URL", Reason: "missing campaign digest path segment (want http://host:port/v1/campaigns/<digest>)"}
	}
	if opt.Name == "" {
		opt.Name = "worker"
	}
	client := &http.Client{Timeout: 30 * time.Second}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var runner *inject.SpanRunner
	transient := 0
	const maxTransient = 10
	for {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		reply, err := leaseOnce(ctx, client, url, &inject.LeaseRequest{Worker: opt.Name, Digest: digest})
		if err != nil {
			if fatal, wait, werr := classify(err, &transient, maxTransient); fatal {
				return st, werr
			} else if serr := sleepCtx(ctx, wait); serr != nil {
				return st, serr
			}
			logf("lease request failed (retrying): %v", err)
			continue
		}
		transient = 0
		switch reply.Status {
		case inject.LeaseDone:
			return st, nil
		case inject.LeaseWait:
			wait := reply.Retry
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return st, err
			}
			continue
		}

		if runner == nil {
			// First granted lease: verify the coordinator's fingerprint
			// really hashes to the digest we joined with, then rebuild
			// the campaign from it.
			if d := reply.FP.Digest(); d != digest {
				return st, &inject.StaleFingerprintError{Got: digest, Want: d}
			}
			cfg, err := reply.FP.Config()
			if err != nil {
				return st, err
			}
			cfg.Workers = opt.InjectWorkers
			runner, err = inject.NewSpanRunner(cfg)
			if err != nil {
				return st, err
			}
			if runner.Total() != reply.Total {
				return st, fmt.Errorf("server: campaign plan disagrees: coordinator has %d experiments, this build enumerates %d", reply.Total, runner.Total())
			}
		}

		logf("lease %d: span [%d,%d) (%d experiments)", reply.LeaseID, reply.Span.Lo, reply.Span.Hi, reply.Span.Hi-reply.Span.Lo)
		busyStart := time.Now()
		if opt.gate != nil {
			opt.gate.Lock()
		}
		outcomes, spanStats, err := runner.Run(reply.Span)
		if opt.gate != nil {
			opt.gate.Unlock()
		}
		busy := time.Since(busyStart)
		st.Busy += busy
		if err != nil {
			// An execution error (oracle mismatch, bad golden) is not
			// retryable: the same span would fail everywhere.
			return st, err
		}

		sub := &inject.SpanSubmit{
			Worker: opt.Name, Digest: digest, LeaseID: reply.LeaseID, Span: reply.Span,
			BusyUS: busy.Microseconds(), Pruned: spanStats.Pruned, OracleChecked: spanStats.OracleChecked,
			Outcomes: outcomes,
		}
		ack, err := spanOnce(ctx, client, url, sub)
		for err != nil && errorCode(err) != "lease_expired" {
			// Commits are idempotent, so a transient failure resends the
			// span: dropping it would idle the span until its lease expired.
			if fatal, wait, werr := classify(err, &transient, maxTransient); fatal {
				return st, werr
			} else if serr := sleepCtx(ctx, wait); serr != nil {
				return st, serr
			}
			logf("lease %d: commit failed (retrying): %v", reply.LeaseID, err)
			ack, err = spanOnce(ctx, client, url, sub)
		}
		switch {
		case err == nil:
			st.Spans++
			if ack.Duplicate {
				st.Duplicates++
			} else {
				st.Experiments += len(outcomes)
				st.Pruned += spanStats.Pruned
			}
			logf("lease %d: committed (%d/%d campaign-wide)", reply.LeaseID, ack.Done, ack.Total)
			if ack.Total > 0 && ack.Done >= ack.Total {
				// This commit completed the campaign. Exit now instead of
				// polling for LeaseDone: a standalone coordinator writes
				// its dataset and quits the moment the last span lands.
				return st, nil
			}
		case errorCode(err) == "lease_expired":
			// We outlived our lease; the span was re-issued and another
			// worker's identical outcomes will land. Drop ours.
			st.Expired++
			logf("lease %d: expired before commit; span re-issued elsewhere", reply.LeaseID)
		}
	}
}

// apiRejection carries a structured server rejection back to the loop.
type apiRejection struct {
	Status int
	Code   string
	Msg    string
}

func (e *apiRejection) Error() string {
	return fmt.Sprintf("server: %s (%d %s)", e.Msg, e.Status, e.Code)
}

// errorCode extracts the stable error code of a server rejection.
func errorCode(err error) string {
	var rej *apiRejection
	if errors.As(err, &rej) {
		return rej.Code
	}
	return ""
}

// classify decides whether an error ends the worker. Structured 4xx
// rejections are fatal (the server told us exactly why we cannot
// proceed), except a 429 from a full limiter; it, network errors and
// 5xx are transient up to the cap, with linear backoff.
func classify(err error, transient *int, max int) (fatal bool, wait time.Duration, out error) {
	var rej *apiRejection
	if errors.As(err, &rej) && rej.Status < 500 && rej.Status != http.StatusTooManyRequests {
		return true, 0, err
	}
	*transient++
	if *transient >= max {
		return true, 0, fmt.Errorf("server: coordinator unreachable after %d attempts: %w", *transient, err)
	}
	wait = time.Duration(*transient) * 100 * time.Millisecond
	if wait > 2*time.Second {
		wait = 2 * time.Second
	}
	return false, wait, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// postJSON POSTs msg as JSON and decodes the reply into out, or returns
// an *apiRejection decoded from the structured error envelope.
func postJSON(ctx context.Context, client *http.Client, url string, msg, out any) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSpanBody))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		rej := &apiRejection{Status: resp.StatusCode, Code: "http_error", Msg: strings.TrimSpace(string(data))}
		if json.Unmarshal(data, &envelope) == nil && envelope.Error.Code != "" {
			rej.Code, rej.Msg = envelope.Error.Code, envelope.Error.Message
		}
		return rej
	}
	return json.Unmarshal(data, out)
}

func leaseOnce(ctx context.Context, client *http.Client, url string, req *inject.LeaseRequest) (*inject.LeaseReply, error) {
	reply := &inject.LeaseReply{}
	if err := postJSON(ctx, client, url+"/leases", req, reply); err != nil {
		return nil, err
	}
	return reply, nil
}

func spanOnce(ctx context.Context, client *http.Client, url string, sub *inject.SpanSubmit) (*inject.SpanReply, error) {
	reply := &inject.SpanReply{}
	if err := postJSON(ctx, client, url+"/spans", sub, reply); err != nil {
		return nil, err
	}
	return reply, nil
}
