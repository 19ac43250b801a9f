// Package dataset holds the logged results of fault-injection experiments
// (the "lockstep error data logging" stage of the paper's Figure 7) and the
// train/test machinery: random-sampling splits and 5-fold cross validation.
package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"lockstep/internal/atomicfile"
	"lockstep/internal/lockstep"
	"lockstep/internal/units"
)

// Record is one fault-injection experiment's log entry. Every injection is
// recorded; only records with Detected set carry a meaningful DSR and
// detection cycle and participate in predictor training.
type Record struct {
	Kernel      string
	Flop        int
	Unit        units.Unit
	Fine        units.Fine
	Kind        lockstep.FaultKind
	InjectCycle int
	Detected    bool
	DetectCycle int
	DSR         uint64
	Converged   bool // soft fault provably masked before the horizon
	Failed      bool // experiment aborted by the campaign harness (panic/budget)
	// Mode is the lockstep organization the experiment ran under. The
	// zero value (DCLS) serializes to nothing: dcls rows keep the
	// pre-mode 11-field layout byte for byte, so dcls datasets and
	// checkpoints are bit-identical to those of pre-mode builds.
	Mode lockstep.Mode
}

// Hard reports whether the injected fault was permanent.
func (r Record) Hard() bool { return r.Kind.IsHard() }

// ManifestationCycles is fault occurrence to error detection (only
// meaningful when Detected).
func (r Record) ManifestationCycles() int { return r.DetectCycle - r.InjectCycle }

// Dataset is an ordered collection of records.
type Dataset struct {
	Records []Record
}

// Manifested returns the sub-dataset of detected errors — the ~2M
// "manifested error data points" of Section IV-A, at our scale.
func (d *Dataset) Manifested() *Dataset {
	out := &Dataset{}
	for _, r := range d.Records {
		if r.Detected {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// Split partitions the dataset into train and test by random sampling with
// the given train fraction, as in the paper's Figure 7.
func (d *Dataset) Split(rng *rand.Rand, trainFrac float64) (train, test *Dataset) {
	perm := rng.Perm(len(d.Records))
	nTrain := int(float64(len(d.Records)) * trainFrac)
	train, test = &Dataset{}, &Dataset{}
	for i, p := range perm {
		if i < nTrain {
			train.Records = append(train.Records, d.Records[p])
		} else {
			test.Records = append(test.Records, d.Records[p])
		}
	}
	return train, test
}

// Balanced returns a class-balanced sub-dataset of detected errors: equal
// numbers of soft and hard records, sampled without replacement. The
// paper's train/test datasets are class-balanced — its Table III overall
// accuracy (67% from 86% soft / 49% hard) and the "43% fewer SBIST
// invocations" statistic are only consistent with a roughly 50/50
// soft/hard error mix.
func (d *Dataset) Balanced(rng *rand.Rand) *Dataset {
	var soft, hard []Record
	for _, r := range d.Records {
		if !r.Detected {
			continue
		}
		if r.Hard() {
			hard = append(hard, r)
		} else {
			soft = append(soft, r)
		}
	}
	n := len(soft)
	if len(hard) < n {
		n = len(hard)
	}
	rng.Shuffle(len(soft), func(i, j int) { soft[i], soft[j] = soft[j], soft[i] })
	rng.Shuffle(len(hard), func(i, j int) { hard[i], hard[j] = hard[j], hard[i] })
	out := &Dataset{Records: make([]Record, 0, 2*n)}
	out.Records = append(out.Records, soft[:n]...)
	out.Records = append(out.Records, hard[:n]...)
	rng.Shuffle(len(out.Records), func(i, j int) {
		out.Records[i], out.Records[j] = out.Records[j], out.Records[i]
	})
	return out
}

// Fold is one cross-validation fold.
type Fold struct {
	Train *Dataset
	Test  *Dataset
}

// Folds produces k-fold cross-validation splits after a random shuffle
// (the paper uses 5-fold cross validation).
func (d *Dataset) Folds(rng *rand.Rand, k int) []Fold {
	if k < 2 {
		k = 2
	}
	perm := rng.Perm(len(d.Records))
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		folds[f].Train = &Dataset{}
		folds[f].Test = &Dataset{}
	}
	for i, p := range perm {
		bucket := i % k
		for f := 0; f < k; f++ {
			if f == bucket {
				folds[f].Test.Records = append(folds[f].Test.Records, d.Records[p])
			} else {
				folds[f].Train.Records = append(folds[f].Train.Records, d.Records[p])
			}
		}
	}
	return folds
}

// UnitStats aggregates per-unit manifestation statistics, the raw material
// of the paper's Table I.
type UnitStats struct {
	Injected    int
	Manifested  int
	ManifestSum int64 // sum of manifestation times (cycles)
	ManifestMin int
	ManifestMax int
}

// Rate is the unit's error manifestation rate: manifested / injected.
func (u UnitStats) Rate() float64 {
	if u.Injected == 0 {
		return 0
	}
	return float64(u.Manifested) / float64(u.Injected)
}

// MeanTime is the unit's mean manifestation time in cycles.
func (u UnitStats) MeanTime() float64 {
	if u.Manifested == 0 {
		return 0
	}
	return float64(u.ManifestSum) / float64(u.Manifested)
}

func (u *UnitStats) add(r Record) {
	u.Injected++
	if !r.Detected {
		return
	}
	t := r.ManifestationCycles()
	if u.Manifested == 0 || t < u.ManifestMin {
		u.ManifestMin = t
	}
	if t > u.ManifestMax {
		u.ManifestMax = t
	}
	u.Manifested++
	u.ManifestSum += int64(t)
}

// ByUnit aggregates records of one fault class ("hard" selects permanent
// faults) into per-coarse-unit statistics.
func (d *Dataset) ByUnit(hard bool) [units.NumUnits]UnitStats {
	var out [units.NumUnits]UnitStats
	for _, r := range d.Records {
		if r.Hard() == hard {
			out[r.Unit].add(r)
		}
	}
	return out
}

// ByFine aggregates per-fine-unit statistics.
func (d *Dataset) ByFine(hard bool) [units.NumFine]UnitStats {
	var out [units.NumFine]UnitStats
	for _, r := range d.Records {
		if r.Hard() == hard {
			out[r.Fine].add(r)
		}
	}
	return out
}

// DistinctDSRs counts the distinct diverged-SC sets among detected records
// (the paper observes about 1200 on the Cortex-R5).
func (d *Dataset) DistinctDSRs() int {
	seen := make(map[uint64]struct{})
	for _, r := range d.Records {
		if r.Detected {
			seen[r.DSR] = struct{}{}
		}
	}
	return len(seen)
}

// ---- serialization -------------------------------------------------------

// csvHeader is the on-disk column layout. Datasets carrying any non-DCLS
// record append the optional 12th "mode" column (csvHeaderMode); pure
// dcls datasets keep the original layout so their bytes are stable
// across the introduction of lockstep modes.
const csvHeader = "kernel,flop,unit,fine,kind,inject,detected,detect,dsr,converged,failed"

// csvHeaderMode is the extended header of mode-bearing datasets.
const csvHeaderMode = csvHeader + ",mode"

// AppendCSV appends the record's CSV row (no trailing newline), the exact
// line WriteCSV emits for it, to dst and returns the extended slice. It is
// exported so partial logs — e.g. the campaign checkpoint files of
// internal/inject — serialize records in the same stable format as full
// datasets. A non-DCLS record appends the mode as a 12th field; dcls rows
// are byte-identical to pre-mode builds.
func (r Record) AppendCSV(dst []byte) []byte {
	dst = append(dst, r.Kernel...)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.Flop), 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(r.Unit), 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(r.Fine), 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(r.Kind), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.InjectCycle), 10)
	dst = append(dst, ',')
	dst = strconv.AppendBool(dst, r.Detected)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.DetectCycle), 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, r.DSR, 16)
	dst = append(dst, ',')
	dst = strconv.AppendBool(dst, r.Converged)
	dst = append(dst, ',')
	dst = strconv.AppendBool(dst, r.Failed)
	if r.Mode != (lockstep.Mode{}) {
		dst = append(dst, ',')
		dst = append(dst, r.Mode.String()...)
	}
	return dst
}

// ParseRecord parses one AppendCSV row — 11 fields, or 12 when the row
// carries a lockstep mode. It is the single row decoder: ReadCSV and the
// checkpoint reader of internal/inject both funnel through it, so the two
// on-disk formats cannot drift apart.
func ParseRecord(text string) (Record, error) {
	f := strings.Split(text, ",")
	if len(f) != 11 && len(f) != 12 {
		return Record{}, fmt.Errorf("%d fields, want 11 or 12", len(f))
	}
	var rec Record
	rec.Kernel = f[0]
	var err error
	if rec.Flop, err = strconv.Atoi(f[1]); err != nil {
		return Record{}, fmt.Errorf("flop: %w", err)
	}
	u, err := strconv.Atoi(f[2])
	if err != nil || u < 0 || u >= units.NumUnits {
		return Record{}, fmt.Errorf("bad unit %q", f[2])
	}
	rec.Unit = units.Unit(u)
	fu, err := strconv.Atoi(f[3])
	if err != nil || fu < 0 || fu >= units.NumFine {
		return Record{}, fmt.Errorf("bad fine unit %q", f[3])
	}
	rec.Fine = units.Fine(fu)
	kd, err := strconv.Atoi(f[4])
	if err != nil || kd < 0 || kd >= lockstep.NumFaultKinds {
		return Record{}, fmt.Errorf("bad kind %q", f[4])
	}
	rec.Kind = lockstep.FaultKind(kd)
	if rec.InjectCycle, err = strconv.Atoi(f[5]); err != nil {
		return Record{}, fmt.Errorf("inject: %w", err)
	}
	if rec.Detected, err = strconv.ParseBool(f[6]); err != nil {
		return Record{}, fmt.Errorf("detected: %w", err)
	}
	if rec.DetectCycle, err = strconv.Atoi(f[7]); err != nil {
		return Record{}, fmt.Errorf("detect: %w", err)
	}
	if rec.DSR, err = strconv.ParseUint(f[8], 16, 64); err != nil {
		return Record{}, fmt.Errorf("dsr: %w", err)
	}
	if rec.Converged, err = strconv.ParseBool(f[9]); err != nil {
		return Record{}, fmt.Errorf("converged: %w", err)
	}
	if rec.Failed, err = strconv.ParseBool(f[10]); err != nil {
		return Record{}, fmt.Errorf("failed: %w", err)
	}
	if len(f) == 12 {
		if rec.Mode, err = lockstep.ParseMode(f[11]); err != nil {
			return Record{}, fmt.Errorf("mode: %w", err)
		}
	}
	return rec, nil
}

// Mode returns the single lockstep mode every record of the dataset ran
// under (DCLS for an empty dataset). A dataset mixing modes is rejected:
// the predictor tables trained from a dataset are mode-specific, so the
// training and serving layers must be able to pin one mode per dataset.
func (d *Dataset) Mode() (lockstep.Mode, error) {
	var mode lockstep.Mode
	for i, r := range d.Records {
		if i == 0 {
			mode = r.Mode
		} else if r.Mode != mode {
			return lockstep.Mode{}, fmt.Errorf("dataset: mixed lockstep modes (%s and %s)", mode, r.Mode)
		}
	}
	return mode, nil
}

// WriteCSV streams the dataset in a stable text format. The header gains
// the mode column exactly when some record carries a non-DCLS mode, so
// dcls datasets remain byte-identical to pre-mode builds.
func (d *Dataset) WriteCSV(w io.Writer) error {
	header := csvHeader
	for _, r := range d.Records {
		if r.Mode != (lockstep.Mode{}) {
			header = csvHeaderMode
			break
		}
	}
	// bufio errors are sticky: a failed header write surfaces below.
	bw := bufio.NewWriter(w)
	bw.WriteString(header + "\n")
	var row []byte
	for _, r := range d.Records {
		row = append(r.AppendCSV(row[:0]), '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSVFile writes the dataset's CSV to path through atomicfile.Write:
// path ends up holding the whole dataset or what it held before, never a
// torn file, and every write error, the final one included, is returned.
func (d *Dataset) WriteCSVFile(path string) error {
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		return err
	}
	return atomicfile.Write(path, buf.Bytes())
}

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	d := &Dataset{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 {
			if text != csvHeader && text != csvHeaderMode {
				return nil, fmt.Errorf("dataset: bad header %q", text)
			}
			continue
		}
		if text == "" {
			continue
		}
		rec, err := ParseRecord(text)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		d.Records = append(d.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
