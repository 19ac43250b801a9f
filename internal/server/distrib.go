// Distributed-campaign endpoints: span leases out, completed spans in.
//
// Two POST routes per campaign carry the whole protocol, with JSON
// bodies decoded like every other lockstep-serve request (size-capped,
// unknown fields and trailing data refused, errors in the structured
// envelope):
//
//	POST /v1/campaigns/{id}/leases — LeaseRequest in, LeaseReply out
//	POST /v1/campaigns/{id}/spans  — SpanSubmit in, SpanReply out
//
// A span submission carries each experiment's lockstep.Outcome, not a
// dataset row: the coordinator renders the rows from its own plan, so
// every column but the outcome comes from the coordinator. {id} is the
// campaign's schedule-fingerprint digest, and every message carries the
// digest again in its body: a worker joined to the wrong campaign (or
// built against a different trace version) is refused with 409
// fingerprint_mismatch before it can touch the dataset. The same two
// routes are served by any lockstep-serve running a distribute:true
// campaign job, and by the Server that NewDistributor builds for
// `lockstep-inject -distribute` — workers cannot tell the difference.
package server

import (
	"fmt"
	"net/http"
	"time"

	"lockstep/internal/inject"
)

// Body limits for the distributed-campaign endpoints. A span submission
// carries up to inject.MaxLeaseSpan outcomes at no more than ~100 bytes
// of JSON each (TestWorstCaseSpanFitsBody), so 16 MiB holds the largest
// one without letting a client stream arbitrarily.
const (
	maxLeaseBody = 4 << 10
	maxSpanBody  = 16 << 20
)

// serveLease runs one lease request against a live coordinator.
func serveLease(co *inject.Coordinator, w http.ResponseWriter, r *http.Request) error {
	var req inject.LeaseRequest
	if err := readJSON(w, r, maxLeaseBody, &req); err != nil {
		return err
	}
	reply, err := co.Acquire(req.Worker, req.Digest)
	if err != nil {
		return injectAPIError(err)
	}
	writeJSON(w, http.StatusOK, reply)
	return nil
}

// serveSpan runs one span submission against a live coordinator and
// reports the campaign-wide merged count after it.
func serveSpan(co *inject.Coordinator, w http.ResponseWriter, r *http.Request) (int, error) {
	var sub inject.SpanSubmit
	if err := readJSON(w, r, maxSpanBody, &sub); err != nil {
		return 0, err
	}
	reply, err := co.Commit(&sub)
	if err != nil {
		return 0, injectAPIError(err)
	}
	writeJSON(w, http.StatusOK, reply)
	return reply.Done, nil
}

// handleCampaignLease serves POST /v1/campaigns/{id}/leases.
func (s *Server) handleCampaignLease(w http.ResponseWriter, r *http.Request) error {
	j, err := s.lookupJob(r)
	if err != nil {
		return err
	}
	if co := s.jobs.coordinator(j.ID); co != nil {
		return serveLease(co, w, r)
	}
	// No live coordinator: the job is done, not yet started, or not
	// distributed at all. Authenticate the request digest against the
	// job ID (they are the same fingerprint digest) and answer with a
	// terminal or wait reply so late and early workers behave sanely.
	var req inject.LeaseRequest
	if err := readJSON(w, r, maxLeaseBody, &req); err != nil {
		return err
	}
	if req.Digest != j.ID {
		return injectAPIError(&inject.StaleFingerprintError{Got: req.Digest, Want: j.ID})
	}
	fp, err := j.Cfg.Fingerprint()
	if err != nil {
		return configError(err)
	}
	st := j.status()
	reply := &inject.LeaseReply{Total: j.Total, Done: int(st.Done), FP: fp}
	switch {
	case st.State == stateDone:
		reply.Status = inject.LeaseDone
	case j.Req.Distribute && st.State != stateFailed:
		// Queued or between adoption and coordinator start: ask the
		// worker to retry shortly.
		reply.Status = inject.LeaseWait
		reply.Retry = 250 * time.Millisecond
	default:
		return &apiError{Status: http.StatusConflict, Code: "not_distributed",
			Message: fmt.Sprintf("campaign %s is %s and not serving leases (submit it with distribute:true)", j.ID, st.State)}
	}
	writeJSON(w, http.StatusOK, reply)
	return nil
}

// handleCampaignSpan serves POST /v1/campaigns/{id}/spans.
func (s *Server) handleCampaignSpan(w http.ResponseWriter, r *http.Request) error {
	j, err := s.lookupJob(r)
	if err != nil {
		return err
	}
	if co := s.jobs.coordinator(j.ID); co != nil {
		done, err := serveSpan(co, w, r)
		if err == nil {
			j.done.Store(int64(done))
		}
		return err
	}
	var sub inject.SpanSubmit
	if err := readJSON(w, r, maxSpanBody, &sub); err != nil {
		return err
	}
	if sub.Digest != j.ID {
		return injectAPIError(&inject.StaleFingerprintError{Got: sub.Digest, Want: j.ID})
	}
	if j.status().State == stateDone {
		// The campaign finished without this span: it was re-issued and
		// merged from another worker. Ack as the duplicate it is.
		writeJSON(w, http.StatusOK, &inject.SpanReply{Duplicate: true, Done: j.Total, Total: j.Total})
		return nil
	}
	return &apiError{Status: http.StatusConflict, Code: "not_distributed",
		Message: fmt.Sprintf("campaign %s has no live coordinator to accept spans", j.ID)}
}

// NewDistributor serves the distributed-campaign endpoints of exactly
// one coordinator — the `lockstep-inject -distribute` topology, where a
// campaign CLI is the coordinator and no full lockstep-serve exists. It
// is a Server with only the three coordinator routes, so it has
// lockstep-serve's limiter, deadlines, error envelope and metrics at
// their defaults, and `lockstep-inject -join` works identically against
// either.
func NewDistributor(co *inject.Coordinator) http.Handler {
	s := newServer(Options{})
	// ours answers 404 unless the {id} path segment is co's campaign.
	ours := func(h endpoint) endpoint {
		return func(w http.ResponseWriter, r *http.Request) error {
			if id := r.PathValue("id"); id != co.Digest() {
				return &apiError{Status: http.StatusNotFound, Code: "unknown_job",
					Message: fmt.Sprintf("this coordinator serves campaign %s, not %q", co.Digest(), id), Field: "id"}
			}
			return h(w, r)
		}
	}
	s.handle("POST /v1/campaigns/{id}/leases", "campaign-lease", ours(func(w http.ResponseWriter, r *http.Request) error {
		return serveLease(co, w, r)
	}))
	s.handle("POST /v1/campaigns/{id}/spans", "campaign-span", ours(func(w http.ResponseWriter, r *http.Request) error {
		_, err := serveSpan(co, w, r)
		return err
	}))
	s.handle("GET /v1/campaigns/{id}", "campaign-status", ours(func(w http.ResponseWriter, r *http.Request) error {
		done, total := co.Progress()
		state := stateRunning
		if done == total {
			state = stateDone
		}
		writeJSON(w, http.StatusOK, struct {
			ID    string `json:"id"`
			State string `json:"state"`
			Done  int    `json:"done"`
			Total int    `json:"total"`
		}{co.Digest(), state, done, total})
		return nil
	}))
	return s
}
