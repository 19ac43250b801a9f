package lockstep

import (
	"fmt"
	"strconv"
	"strings"
)

// ModeKind enumerates the lockstep organizations the campaign harness can
// drive. The zero value is classic dual-core lockstep (DCLS), so every
// pre-existing struct that gains a Mode field keeps its old meaning.
type ModeKind uint8

const (
	// ModeDCLS is the paper's baseline: main and redundant CPU execute
	// cycle-for-cycle, the checker compares their outputs every cycle.
	ModeDCLS ModeKind = iota
	// ModeSlip is temporal-slip lockstep (the SafeLS/NOEL-V design): the
	// redundant CPU runs Mode.Slip cycles behind the main CPU and the
	// checker compares the redundant stream against the delayed main
	// stream.
	ModeSlip
	// ModeTMR is triple-core lockstep with a majority voter and forward
	// recovery (the TCLS configuration of Section II).
	ModeTMR
)

// Mode selects a lockstep organization for an injection campaign. It is a
// comparable value type; the zero value is DCLS, so Mode can ride along
// in configs, fingerprints and records without disturbing existing
// serializations.
type Mode struct {
	Kind ModeKind
	Slip int // stagger in cycles; meaningful only when Kind == ModeSlip
}

// String renders the canonical mode spelling: "dcls", "slip:N" or "tmr".
// ParseMode(m.String()) == m for every valid Mode.
func (m Mode) String() string {
	switch m.Kind {
	case ModeDCLS:
		return "dcls"
	case ModeSlip:
		return "slip:" + strconv.Itoa(m.Slip)
	case ModeTMR:
		return "tmr"
	}
	return fmt.Sprintf("mode(%d)", uint8(m.Kind))
}

// ParseMode parses the "dcls" / "slip:N" / "tmr" mode codec used by the
// -mode CLI flag, the server campaign API, the dataset CSV column and the
// checkpoint fingerprint. The empty string means DCLS (it is how a dcls
// mode round-trips through omitempty JSON and pre-mode checkpoints).
//
// The slip count must be spelled canonically — strconv.Itoa of the value,
// so "slip:+3", "slip:007" and "slip:0x3" are rejected — which makes the
// codec bijective and keeps fingerprint digests stable. A canonically
// spelled negative count ("slip:-3") parses: range validation is the
// campaign Config's job, so the CLI and the server surface the identical
// typed ConfigError for it rather than two different parse errors.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "dcls":
		return Mode{}, nil
	case "tmr":
		return Mode{Kind: ModeTMR}, nil
	}
	if digits, ok := strings.CutPrefix(s, "slip:"); ok {
		n, err := strconv.Atoi(digits)
		if err != nil || strconv.Itoa(n) != digits {
			return Mode{}, fmt.Errorf("lockstep: bad slip count %q (want slip:N with N a canonical integer)", digits)
		}
		return Mode{Kind: ModeSlip, Slip: n}, nil
	}
	return Mode{}, fmt.Errorf("lockstep: unknown mode %q (want dcls, slip:N or tmr)", s)
}

// Horizon is the number of golden-trace cycles an injection run can
// compare under this mode. Under slip the redundant CPU starts Slip wall
// cycles late, so only the first TotalCycles-Slip program cycles of the
// golden stream are ever checked before the campaign horizon; DCLS and
// TMR compare the full trace.
func (m Mode) Horizon(totalCycles int) int {
	if m.Kind == ModeSlip {
		return totalCycles - m.Slip
	}
	return totalCycles
}

// DetectShift is the wall-clock offset added to program-space detection
// cycles: under slip the checker sees program cycle c of the redundant
// stream at wall cycle c+Slip.
func (m Mode) DetectShift() int {
	if m.Kind == ModeSlip {
		return m.Slip
	}
	return 0
}
