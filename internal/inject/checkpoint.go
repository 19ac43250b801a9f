// Campaign checkpointing: the crash-safety layer of the injection
// campaign. A checkpoint is a small, versioned, CRC-sealed text file
// holding the campaign's config fingerprint plus the completed plan-index
// spans and their records. It is written atomically (temp file + rename in
// the target directory) so a reader — including a resuming campaign —
// always sees either the previous checkpoint or the new one, never a torn
// file, even if the process is SIGKILLed mid-write.
//
// Resume contract: a campaign resumed from a checkpoint re-executes
// exactly the plan indices the checkpoint does not cover and restores the
// covered records verbatim, so the final dataset is byte-identical to an
// uninterrupted run at any worker count. A checkpoint that fails
// validation (corrupt, truncated, wrong version, or written by a campaign
// with a different schedule-relevant config) refuses to resume with a
// typed error; it never silently restarts from zero.
package inject

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"

	"lockstep/internal/atomicfile"
	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
)

// checkpointMagic is the first line of every checkpoint file; the trailing
// integer is the format version.
const checkpointMagic = "lockstep-checkpoint v1"

// CheckpointError reports a checkpoint file that cannot be trusted:
// corrupt, truncated, or from an unknown format version. Resume refuses on
// it rather than restarting silently.
type CheckpointError struct {
	Reason string
}

func (e *CheckpointError) Error() string {
	return "inject: bad checkpoint: " + e.Reason
}

func badCheckpoint(format string, args ...any) error {
	return &CheckpointError{Reason: fmt.Sprintf(format, args...)}
}

// ConfigMismatchError reports a resume attempt whose campaign config
// disagrees with the checkpoint's recorded fingerprint. Field names the
// first differing schedule-relevant field.
type ConfigMismatchError struct {
	Field      string
	Checkpoint string // the checkpoint's value, rendered
	Config     string // the resuming config's value, rendered
}

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf("inject: resume config mismatch: %s differs (checkpoint %s, config %s); rerun with the original campaign config or start a fresh campaign without -resume",
		e.Field, e.Checkpoint, e.Config)
}

// Fingerprint pins every Config field that influences the experiment
// schedule or outcomes. Worker count, progress callbacks and the
// checkpoint knobs themselves are deliberately absent: they change only
// wall-clock behaviour, so a campaign may be resumed with a different
// worker pool. Field names double as the identifiers ConfigMismatchError
// reports.
type Fingerprint struct {
	Kernels               []string `json:"kernels"`
	RunCycles             int      `json:"run_cycles"`
	Intervals             int      `json:"intervals"`
	InjectionsPerFlopKind int      `json:"injections_per_flop_kind"`
	FlopStride            int      `json:"flop_stride"`
	Kinds                 []int    `json:"kinds"`
	StopLatency           int      `json:"stop_latency"` // effective checker window
	Seed                  int64    `json:"seed"`
	// Legacy is always false. It named a campaign run on the dual-CPU
	// oracle, which no Config can select any more; it stays so that every
	// digest (a lockstep-serve job ID) and checkpoint keeps its bytes, and
	// a checkpoint that has it set refuses to resume.
	Legacy bool `json:"legacy"`
	// NoPrune is schedule-relevant even though datasets are byte-identical
	// either way: a checkpoint taken with pruning enabled holds rows the
	// static analysis proved, so resuming it under -no-prune (or vice
	// versa) must be an explicit decision, not a silent mix of the oracle
	// path and the pruned path within one dataset.
	NoPrune bool `json:"no_prune"`
	// TraceVersion pins the golden-trace layout + pruning-analysis
	// generation (lockstep.TraceVersion) the campaign ran under. Old
	// checkpoints decode it as 0 and refuse to resume on a newer build.
	TraceVersion int `json:"trace_version"`
	// Mode is the canonical lockstep.Mode spelling ("slip:N", "tmr"),
	// empty for DCLS: pre-mode checkpoints decode as "", so they resume
	// under dcls configs exactly as before, and dcls digests — the
	// lockstep-serve job IDs — are unchanged by the mode axis. A
	// cross-mode resume or lease is refused with
	// ConfigMismatchError{Field: "Mode"}.
	Mode string `json:"mode,omitempty"`
}

// fingerprint derives the schedule fingerprint of a normalized config.
func (c Config) fingerprint() Fingerprint {
	kinds := make([]int, len(c.Kinds))
	for i, k := range c.Kinds {
		kinds[i] = int(k)
	}
	window := c.StopLatency
	if window <= 0 {
		window = lockstep.StopLatency
	}
	mode := ""
	if c.Mode != (lockstep.Mode{}) {
		mode = c.Mode.String()
	}
	return Fingerprint{
		Kernels:               append([]string(nil), c.Kernels...),
		RunCycles:             c.RunCycles,
		Intervals:             c.Intervals,
		InjectionsPerFlopKind: c.InjectionsPerFlopKind,
		FlopStride:            c.FlopStride,
		Kinds:                 kinds,
		StopLatency:           window,
		Seed:                  c.Seed,
		NoPrune:               c.NoPrune,
		TraceVersion:          lockstep.TraceVersion,
		Mode:                  mode,
	}
}

// Digest returns the fingerprint's compact campaign identity: the hex of
// the first 8 bytes of the SHA-256 of its canonical JSON encoding. It is
// the job ID lockstep-serve keys campaigns by, and the credential every
// distributed lease/span message carries — a worker that cannot produce
// the digest cannot have the same schedule, so its records are refused.
func (f Fingerprint) Digest() string {
	data, err := json.Marshal(f)
	if err != nil {
		// Fingerprint is a plain struct of strings/ints/bools; Marshal
		// cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// diff returns the name and both renderings of the first field differing
// between two fingerprints, or ok=true when they match. Fields are walked
// by reflection so a future Fingerprint field cannot be forgotten here.
func (f Fingerprint) diff(other Fingerprint) (field, a, b string, ok bool) {
	va, vb := reflect.ValueOf(f), reflect.ValueOf(other)
	t := va.Type()
	for i := 0; i < t.NumField(); i++ {
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if !reflect.DeepEqual(fa, fb) {
			return t.Field(i).Name, fmt.Sprintf("%v", fa), fmt.Sprintf("%v", fb), false
		}
	}
	return "", "", "", true
}

// Span is a half-open [Lo, Hi) range of completed plan indices.
type Span struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// indices returns the plan indices of the span, ascending.
func (s Span) indices() []int {
	idxs := make([]int, s.Hi-s.Lo)
	for i := range idxs {
		idxs[i] = s.Lo + i
	}
	return idxs
}

// Checkpoint is the in-memory form of a campaign checkpoint file.
type Checkpoint struct {
	FP    Fingerprint
	Total int    // length of the campaign plan
	Done  []Span // sorted, disjoint completed plan-index spans
	// Records holds the record of every completed experiment, concatenated
	// in ascending plan-index order (i.e. span by span).
	Records []dataset.Record
}

// DoneCount returns the number of completed experiments the checkpoint
// covers.
func (c *Checkpoint) DoneCount() int {
	n := 0
	for _, s := range c.Done {
		n += s.Hi - s.Lo
	}
	return n
}

// Validate checks the checkpoint against a campaign's config and plan
// size, returning *ConfigMismatchError naming the first differing
// schedule-relevant field (or a *CheckpointError on a plan-length
// mismatch). It is what Resume enforces; exported so servers can refuse
// a conflicting campaign submission before any work is scheduled.
func (c *Checkpoint) Validate(cfg Config, planLen int) error {
	if err := cfg.normalize(); err != nil {
		return err
	}
	return c.validate(cfg, planLen)
}

// validate checks the checkpoint against the resuming campaign's
// normalized config and plan size.
func (c *Checkpoint) validate(cfg Config, planLen int) error {
	if field, ckv, cfv, ok := c.FP.diff(cfg.fingerprint()); !ok {
		return &ConfigMismatchError{Field: field, Checkpoint: ckv, Config: cfv}
	}
	if c.Total != planLen {
		return badCheckpoint("plan length %d does not match campaign plan %d", c.Total, planLen)
	}
	return nil
}

// Encode renders the checkpoint in its on-disk format:
//
//	lockstep-checkpoint v1
//	config <fingerprint JSON>
//	total <plan length>
//	done <lo>-<hi> <lo>-<hi> ...
//	records <count>
//	<count dataset CSV rows>
//	crc <IEEE CRC-32 of everything above, hex>
func (c *Checkpoint) Encode(w io.Writer) error {
	data, err := c.encode()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

func (c *Checkpoint) encode() ([]byte, error) {
	var rows []byte
	for _, r := range c.Records {
		rows = appendRow(rows, r)
	}
	return appendCheckpoint(nil, c.FP, c.Total, c.Done, len(c.Records), rows)
}

// appendRow appends record r's checkpoint row.
func appendRow(dst []byte, r dataset.Record) []byte {
	return append(r.AppendCSV(dst), '\n')
}

// appendCheckpoint appends the on-disk form of a checkpoint (see Encode)
// to dst. Its nrec records are the concatenation of rows, each record's
// appendRow in plan order, so a writer can keep the rows that do not
// change between checkpoints encoded.
func appendCheckpoint(dst []byte, fp Fingerprint, total int, done []Span, nrec int, rows ...[]byte) ([]byte, error) {
	js, err := json.Marshal(fp)
	if err != nil {
		return dst, err
	}
	start := len(dst)
	dst = fmt.Appendf(dst, "%s\nconfig %s\ntotal %d\ndone", checkpointMagic, js, total)
	for _, s := range done {
		dst = fmt.Appendf(dst, " %d-%d", s.Lo, s.Hi)
	}
	dst = fmt.Appendf(dst, "\nrecords %d\n", nrec)
	for _, r := range rows {
		dst = append(dst, r...)
	}
	return fmt.Appendf(dst, "crc %08x\n", crc32.ChecksumIEEE(dst[start:])), nil
}

// DecodeCheckpoint parses and verifies a checkpoint. Every failure —
// wrong magic or version, truncation, CRC mismatch, malformed or
// inconsistent contents — returns a *CheckpointError.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, badCheckpoint("read: %v", err)
	}
	// Split off and verify the CRC seal first: it vouches for everything
	// above it, so truncated or bit-flipped files fail before parsing.
	body, ok := cutCRCSeal(data)
	if !ok {
		return nil, badCheckpoint("missing or corrupt CRC seal (truncated file?)")
	}

	lines := strings.Split(string(body), "\n")
	// body ends with the newline before the crc line, so the final split
	// element is empty.
	if len(lines) < 6 || lines[len(lines)-1] != "" {
		return nil, badCheckpoint("too short")
	}
	lines = lines[:len(lines)-1]
	if lines[0] != checkpointMagic {
		if strings.HasPrefix(lines[0], "lockstep-checkpoint v") {
			return nil, badCheckpoint("unsupported version %q (this build reads %q)", lines[0], checkpointMagic)
		}
		return nil, badCheckpoint("not a checkpoint file")
	}

	ck := &Checkpoint{}
	cfgLine, ok := strings.CutPrefix(lines[1], "config ")
	if !ok {
		return nil, badCheckpoint("missing config line")
	}
	if err := json.Unmarshal([]byte(cfgLine), &ck.FP); err != nil {
		return nil, badCheckpoint("config fingerprint: %v", err)
	}
	totalLine, ok := strings.CutPrefix(lines[2], "total ")
	if !ok {
		return nil, badCheckpoint("missing total line")
	}
	if ck.Total, err = strconv.Atoi(totalLine); err != nil || ck.Total < 0 {
		return nil, badCheckpoint("bad total %q", totalLine)
	}
	doneLine, ok := strings.CutPrefix(lines[3], "done")
	if !ok {
		return nil, badCheckpoint("missing done line")
	}
	prev := 0
	for _, tok := range strings.Fields(doneLine) {
		lo, hi, ok := strings.Cut(tok, "-")
		if !ok {
			return nil, badCheckpoint("bad span %q", tok)
		}
		var s Span
		if s.Lo, err = strconv.Atoi(lo); err != nil {
			return nil, badCheckpoint("bad span %q", tok)
		}
		if s.Hi, err = strconv.Atoi(hi); err != nil {
			return nil, badCheckpoint("bad span %q", tok)
		}
		// Spans must be non-empty, in-range, sorted and disjoint; this also
		// bounds DoneCount by Total before any record is read.
		if s.Lo < prev || s.Lo >= s.Hi || s.Hi > ck.Total {
			return nil, badCheckpoint("span %q out of order or out of range (total %d)", tok, ck.Total)
		}
		prev = s.Hi
		ck.Done = append(ck.Done, s)
	}
	countLine, ok := strings.CutPrefix(lines[4], "records ")
	if !ok {
		return nil, badCheckpoint("missing records line")
	}
	count, err := strconv.Atoi(countLine)
	if err != nil || count != ck.DoneCount() {
		return nil, badCheckpoint("record count %q does not match %d completed plan indices", countLine, ck.DoneCount())
	}
	rows := lines[5:]
	if len(rows) != count {
		return nil, badCheckpoint("%d record rows, want %d", len(rows), count)
	}
	if count > 0 {
		ck.Records = make([]dataset.Record, 0, count)
	}
	for i, row := range rows {
		rec, err := dataset.ParseRecord(row)
		if err != nil {
			return nil, badCheckpoint("record %d: %v", i, err)
		}
		ck.Records = append(ck.Records, rec)
	}
	return ck, nil
}

// cutCRCSeal verifies the trailing "crc %08x\n" line against the bytes
// before it and returns those bytes.
func cutCRCSeal(data []byte) ([]byte, bool) {
	const sealLen = len("crc 00000000\n")
	if len(data) < sealLen || data[len(data)-1] != '\n' {
		return nil, false
	}
	body, seal := data[:len(data)-sealLen], data[len(data)-sealLen:]
	hex, ok := strings.CutPrefix(strings.TrimSuffix(string(seal), "\n"), "crc ")
	if !ok {
		return nil, false
	}
	want, err := strconv.ParseUint(hex, 16, 32)
	if err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(body) != uint32(want) {
		return nil, false
	}
	return body, true
}

// ReadCheckpoint loads and verifies a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}

// WriteCheckpoint atomically persists a checkpoint (see atomicfile.Write),
// so a concurrent reader (or a resume after a crash at any instant) sees
// a complete old or complete new checkpoint.
func WriteCheckpoint(path string, ck *Checkpoint) error {
	data, err := ck.encode()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, data)
}
