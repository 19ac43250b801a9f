// Package handler implements the lockstep error handler — the software the
// paper's Section III-C describes running when the checker detects an
// error: it is invoked by interrupt, reads the Prediction Table Address
// Register "similar to an exception handler accessing the exception vector
// table", fetches the prediction entry, and drives the reaction to a safe
// state: either an immediate reset-and-restart (predicted soft) or an
// SBIST session over the predicted unit order followed by failure
// reporting or restart.
//
// Unlike the analytical models in internal/sbist (which score reaction
// times over logged datasets), this package executes the reaction against
// a live lockstep.DMR system and produces a cycle-stamped timeline — the
// end-to-end flow of Figures 2 and 9c.
package handler

import (
	"fmt"
	"io"

	"lockstep/internal/core"
	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/sbist"
)

// Phase labels for the reaction timeline.
const (
	PhaseDetect    = "error-detected"
	PhaseTableRead = "prediction-read"
	PhaseSTL       = "stl"
	PhaseRestart   = "reset-restart"
	PhaseFail      = "report-failure"
	PhaseSafe      = "safe-state"
)

// Event is one timeline entry of a reaction.
type Event struct {
	Cycle int64  // cycles since error detection
	Phase string // one of the Phase constants
	Note  string
}

// Reaction is the complete record of one error handling episode.
type Reaction struct {
	DSR        uint64
	PTAR       int
	KnownSet   bool
	PredHard   bool
	PredOrder  []uint8
	Timeline   []Event
	LERT       int64 // detection to safe state, in cycles
	FoundHard  bool  // SBIST located a permanent fault
	FaultyUnit int   // unit the SBIST identified (-1 if none)
	Restarted  bool  // reaction ended in reset & restart
}

// Handler is the error-handling software plus its hardware interface: the
// predictor front-end and the latency environment.
type Handler struct {
	Frontend core.Frontend
	Cfg      sbist.Config
	// Truth oracle for STL outcomes: given a unit, does its STL find a
	// hard fault? In a real system this is the STL itself; here the
	// fault-injection framework supplies ground truth (STL coverage is
	// assumed 100%, as in the paper).
	stlFinds func(unit int) bool
}

// New builds a handler around a trained prediction table.
func New(table *core.Table, cfg sbist.Config) *Handler {
	return &Handler{Frontend: core.Frontend{Table: table}, Cfg: cfg}
}

// Prediction is the pure prediction step of a reaction: the DSR latched
// into the front-end, the PTAR it mapped to, and the entry the handler
// would fetch — without driving any reaction. It is what an online
// consumer (lockstep-serve's /v1/predict) needs at error-detection time.
type Prediction struct {
	DSR   uint64
	PTAR  int      // prediction table address the DSR mapped to
	Known bool     // false when the DSR hit the default entry
	Hard  bool     // predicted error type
	Order []uint8  // predicted unit test order (unit IDs at Cfg.Gran)
	Units []string // the same order as unit names
}

// Predict performs the handler's DSR→PTAR→table flow (latch the DSR,
// resolve the table address, fetch the entry) and returns the prediction
// without reacting. HandleLive drives the same front-end, so
// a Reaction's PTAR/KnownSet/PredHard/PredOrder always agree with
// Predict on the same DSR. Handlers are not safe for concurrent use
// (the front-end latches state); concurrent callers build one Handler
// each — construction is two words around the shared read-only table.
func (h *Handler) Predict(dsr uint64) Prediction {
	h.Frontend.LatchError(dsr)
	pred := h.Frontend.ReadEntry()
	names := make([]string, len(pred.Units))
	for i, u := range pred.Units {
		names[i] = h.Cfg.Gran.UnitName(int(u))
	}
	return Prediction{
		DSR:   dsr,
		PTAR:  h.Frontend.PTAR,
		Known: h.Frontend.Hit,
		Hard:  pred.Hard,
		Order: pred.Units,
		Units: names,
	}
}

// handleRecord reacts to a logged error record (ground truth comes from
// the record itself). It is the executable twin of sbist.PredComb.React.
func (h *Handler) handleRecord(r dataset.Record) Reaction {
	h.stlFinds = func(unit int) bool {
		return r.Hard() && unit == h.Cfg.Gran.UnitOf(r)
	}
	return h.react(r.DSR, r.Kernel)
}

// HandleLive reacts to an error latched by a live DMR system: it reads the
// checker's DSR, drives the reaction, and — when the reaction ends in a
// restart — resets the lockstep pair. The faulty unit oracle is supplied
// by the caller (the injection framework knows where the fault is).
func (h *Handler) HandleLive(d *lockstep.DMR, kernel string, faultyUnit int, hard bool) (Reaction, error) {
	h.stlFinds = func(unit int) bool { return hard && unit == faultyUnit }
	re := h.react(d.Chk.DSR, kernel)
	if re.Restarted {
		if err := d.Restart(); err != nil {
			return re, err
		}
	}
	return re, nil
}

// react runs the handler flow of Figure 9c.
func (h *Handler) react(dsr uint64, kernel string) Reaction {
	re := Reaction{DSR: dsr, FaultyUnit: -1}
	now := int64(0)
	log := func(phase, note string) {
		re.Timeline = append(re.Timeline, Event{Cycle: now, Phase: phase, Note: note})
	}
	log(PhaseDetect, fmt.Sprintf("checker latched DSR %#x", dsr))

	// Read the PTAR and fetch the prediction entry from table memory.
	h.Frontend.LatchError(dsr)
	pred := h.Frontend.ReadEntry()
	now += h.Cfg.TableAccess
	re.PTAR = h.Frontend.PTAR
	re.KnownSet = h.Frontend.Hit
	re.PredHard = pred.Hard
	re.PredOrder = pred.Units
	log(PhaseTableRead, fmt.Sprintf("PTAR=%d known=%v type=%s order=%v",
		re.PTAR, re.KnownSet, typeName(pred.Hard), pred.Units))

	if !pred.Hard {
		// Predicted soft: reset & restart immediately.
		now += h.Cfg.RestartOf(kernel)
		log(PhaseRestart, "predicted soft: reset CPUs, restart task")
		log(PhaseSafe, "system available again")
		re.Restarted = true
		re.LERT = now
		return re
	}

	// Predicted hard: run STLs in the predicted order. The order may be
	// partial (top-K tables); untested units follow implicitly — the
	// handler in this configuration stores the full order.
	for i, u := range pred.Units {
		now += h.Cfg.STL[u]
		if h.stlFinds(int(u)) {
			log(PhaseSTL, fmt.Sprintf("STL %d/%d: unit %s FAILED",
				i+1, len(pred.Units), h.Cfg.Gran.UnitName(int(u))))
			log(PhaseFail, "permanent fault confirmed: alert system, hold safe state")
			log(PhaseSafe, "fail-safe reached")
			re.FoundHard = true
			re.FaultyUnit = int(u)
			re.LERT = now
			return re
		}
		log(PhaseSTL, fmt.Sprintf("STL %d/%d: unit %s clean",
			i+1, len(pred.Units), h.Cfg.Gran.UnitName(int(u))))
	}

	// No hard fault found: the error was soft after all.
	now += h.Cfg.RestartOf(kernel)
	log(PhaseRestart, "no hard fault found: error was transient; reset & restart")
	log(PhaseSafe, "system available again")
	re.Restarted = true
	re.LERT = now
	return re
}

func typeName(hard bool) string {
	if hard {
		return "hard"
	}
	return "soft"
}

// PrintTimeline renders a reaction for humans.
func (re Reaction) PrintTimeline(w io.Writer) {
	for _, e := range re.Timeline {
		fmt.Fprintf(w, "  +%-8d %-16s %s\n", e.Cycle, e.Phase, e.Note)
	}
	fmt.Fprintf(w, "  LERT: %d cycles\n", re.LERT)
}
