// Package sbist models software built-in self-test (SBIST) diagnostics and
// the lockstep error reaction time (LERT) of the paper's baseline and
// prediction models (Section IV-C, Figure 9).
//
// When the checker detects an error, the system controller runs the
// software test library (STL) of each CPU unit in some order until a hard
// fault is found; if none is found the error is deemed soft and the CPUs
// are reset and the application restarted. LERT is the cycle count of that
// whole reaction. Five models order the STLs differently:
//
//	base-random        new random unit order per error
//	base-ascending     units in ascending STL latency
//	base-manifest      units in descending error manifestation rate
//	pred-location-only the predictor's per-error unit order
//	pred-comb          location order + error type prediction, which skips
//	                   SBIST entirely for predicted-soft errors
package sbist

import (
	"math/rand"
	"sort"

	"lockstep/internal/core"
	"lockstep/internal/dataset"
	"lockstep/internal/stats"
	"lockstep/internal/units"
)

// Table access latencies of the paper's Table II.
const (
	OnChipTableAccess  = 2
	OffChipTableAccess = 100
)

// Config carries the latency environment shared by all models.
type Config struct {
	Gran core.Granularity
	// STL latency in cycles per unit, indexed by unit ID at Gran.
	STL []int64
	// Restart penalty per kernel in cycles (reset + outer-loop restart).
	Restart map[string]int64
	// TableAccess is the prediction table read latency (prediction models
	// only).
	TableAccess int64
}

// DefaultSTL returns synthetic per-unit STL latencies matching the
// published range of Table II ([25k, 170k, 700k] min/mean/max for the
// seven-unit configuration) and, for the fine configuration, the DPU STL
// broken into its seven constituents (Section V-D).
func DefaultSTL(gran core.Granularity) []int64 {
	if gran == core.Fine13 {
		out := make([]int64, units.NumFine)
		out[units.FinePFU] = 60_000
		out[units.FineIMC] = 45_000
		out[units.FineLSU] = 90_000
		out[units.FineDMC] = 50_000
		out[units.FineBIU] = 25_000
		out[units.FineSCU] = 200_000
		out[units.FineDPUDecode] = 60_000
		out[units.FineDPUOperand] = 40_000
		out[units.FineDPURegFile] = 180_000
		out[units.FineDPUALU] = 150_000
		out[units.FineDPUMul] = 90_000
		out[units.FineDPUDiv] = 100_000
		out[units.FineDPURetire] = 80_000
		return out
	}
	out := make([]int64, units.NumUnits)
	out[units.PFU] = 60_000
	out[units.IMC] = 45_000
	out[units.DPU] = 700_000
	out[units.LSU] = 90_000
	out[units.DMC] = 50_000
	out[units.BIU] = 25_000
	out[units.SCU] = 200_000
	return out
}

// NewConfig builds a Config with default STLs and the given per-kernel
// restart penalties and table access latency.
func NewConfig(gran core.Granularity, restart map[string]int64, tableAccess int64) Config {
	return Config{Gran: gran, STL: DefaultSTL(gran), Restart: restart, TableAccess: tableAccess}
}

// RestartOf returns the restart penalty for a kernel, falling back to the
// paper's Table II mean (10k cycles) for unknown kernels.
func (c Config) RestartOf(kernel string) int64 {
	if v, ok := c.Restart[kernel]; ok {
		return v
	}
	return 10_000
}

// allSTL is the run-to-completion SBIST cost (every unit tested).
func (c Config) allSTL() int64 {
	var sum int64
	for _, l := range c.STL {
		sum += l
	}
	return sum
}

// scan runs STLs in the given order until the faulty unit's STL fires.
func (c Config) scan(order []uint8, faulty int) (cycles int64, tested int) {
	for i, u := range order {
		cycles += c.STL[u]
		if int(u) == faulty {
			return cycles, i + 1
		}
	}
	// The faulty unit must appear in a full order; partial orders are
	// completed by the caller before calling scan.
	return cycles, len(order)
}

// Result is one error's reaction accounting.
type Result struct {
	Cycles      int64 // the LERT
	UnitsTested int   // STLs executed before reaching the safe state
	SBISTRun    bool  // whether SBIST was invoked at all
}

// Model computes the reaction for one detected lockstep error.
type Model interface {
	Name() string
	React(r dataset.Record, rng *rand.Rand) Result
}

// reactBIST implements the Figure 9a/9b skeleton shared by baselines and
// the location-only predictor: run STLs in the given order; hard errors
// stop at the faulty unit, soft errors run every STL and then pay the
// restart penalty.
func (c Config) reactBIST(order []uint8, r dataset.Record, extra int64) Result {
	if r.Hard() {
		cycles, tested := c.scan(order, c.Gran.UnitOf(r))
		return Result{Cycles: extra + cycles, UnitsTested: tested, SBISTRun: true}
	}
	return Result{
		Cycles:      extra + c.allSTL() + c.RestartOf(r.Kernel),
		UnitsTested: len(order),
		SBISTRun:    true,
	}
}

// ---- baseline models ------------------------------------------------------

// BaseRandom orders the STLs pseudo-randomly anew for every detected error
// (the paper's dynamic baseline).
type BaseRandom struct{ Cfg Config }

func (m BaseRandom) Name() string { return "base-random" }

func (m BaseRandom) React(r dataset.Record, rng *rand.Rand) Result {
	n := m.Cfg.Gran.Units()
	order := make([]uint8, n)
	for i := range order {
		order[i] = uint8(i)
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return m.Cfg.reactBIST(order, r, 0)
}

// BaseAscending orders the STLs by ascending latency, so cheap units are
// ruled out first.
type BaseAscending struct {
	Cfg   Config
	order []uint8
}

// NewBaseAscending builds the static ascending-latency order.
func NewBaseAscending(cfg Config) *BaseAscending {
	lat := make([]float64, len(cfg.STL))
	for i, l := range cfg.STL {
		lat[i] = float64(l)
	}
	idx := stats.ArgsortAsc(lat)
	order := make([]uint8, len(idx))
	for i, u := range idx {
		order[i] = uint8(u)
	}
	return &BaseAscending{Cfg: cfg, order: order}
}

func (m *BaseAscending) Name() string { return "base-ascending" }

func (m *BaseAscending) React(r dataset.Record, rng *rand.Rand) Result {
	return m.Cfg.reactBIST(m.order, r, 0)
}

// BaseManifest orders the STLs by descending error manifestation rate
// measured on the training set: units that expose faults most often are
// tested first.
type BaseManifest struct {
	Cfg   Config
	order []uint8
}

// NewBaseManifest derives the manifestation-rate order from training data.
func NewBaseManifest(cfg Config, train *dataset.Dataset) *BaseManifest {
	n := cfg.Gran.Units()
	injected := make([]float64, n)
	manifested := make([]float64, n)
	for _, rec := range train.Records {
		u := cfg.Gran.UnitOf(rec)
		injected[u]++
		if rec.Detected {
			manifested[u]++
		}
	}
	rates := make([]float64, n)
	for u := range rates {
		if injected[u] > 0 {
			rates[u] = manifested[u] / injected[u]
		}
	}
	idx := stats.ArgsortDesc(rates)
	order := make([]uint8, n)
	for i, u := range idx {
		order[i] = uint8(u)
	}
	return &BaseManifest{Cfg: cfg, order: order}
}

func (m *BaseManifest) Name() string { return "base-manifest" }

func (m *BaseManifest) React(r dataset.Record, rng *rand.Rand) Result {
	return m.Cfg.reactBIST(m.order, r, 0)
}

// ---- prediction models ------------------------------------------------------

// PredLocationOnly is the Figure 9b model: the SBIST tests units in the
// predictor's order (most to least likely), with no type prediction.
type PredLocationOnly struct {
	Cfg   Config
	Table *core.Table
}

func (m PredLocationOnly) Name() string { return "pred-location-only" }

func (m PredLocationOnly) React(r dataset.Record, rng *rand.Rand) Result {
	order, _ := m.Table.PredictOrder(r.DSR, rng)
	return m.Cfg.reactBIST(order, r, m.Cfg.TableAccess)
}

// PredComb is the Figure 9c model: location prediction plus the 1-bit type
// prediction. Predicted-soft errors skip SBIST entirely (reset & restart);
// if a predicted-soft error was actually hard, the error recurs and is
// then always treated as hard (Section IV-C3), and diagnosis proceeds in
// the predicted order. The interval between the restart and the error's
// recurrence is normal operation (the system is available), so the
// accounted reaction time for the misprediction is the first reaction
// (table access + restart) plus the second reaction (table access + scan)
// — which keeps pred-comb's LERT bounded by the baseline's, as Section
// IV-C3 asserts ("safety is never compromised").
type PredComb struct {
	Cfg   Config
	Table *core.Table
}

func (m PredComb) Name() string { return "pred-comb" }

func (m PredComb) React(r dataset.Record, rng *rand.Rand) Result {
	order, predHard := m.Table.PredictOrder(r.DSR, rng)
	return m.Cfg.reactPredicted(order, predHard, r)
}

// reactPredicted is the Figure 9c reaction to a predicted unit order and
// error type, shared by the static and dynamic type predictors.
func (c Config) reactPredicted(order []uint8, predHard bool, r dataset.Record) Result {
	if predHard {
		// Same flow as location-only: scan; if no hard fault found the
		// error was soft (type misprediction) and the system restarts.
		return c.reactBIST(order, r, c.TableAccess)
	}
	// Predicted soft: reset & restart immediately.
	if !r.Hard() {
		return Result{Cycles: c.TableAccess + c.RestartOf(r.Kernel)}
	}
	// Type misprediction on a hard error: the recurrence is treated as
	// hard and diagnosed in the predicted order.
	cycles, tested := c.scan(order, c.Gran.UnitOf(r))
	return Result{
		Cycles:      c.TableAccess + c.RestartOf(r.Kernel) + c.TableAccess + cycles,
		UnitsTested: tested,
		SBISTRun:    true,
	}
}

// ---- dynamic-predictor ablation ---------------------------------------------

// PredDynamic wraps the Section VII dynamic predictor: it predicts from
// accumulated error history and observes the diagnosed truth after every
// error. Evaluate it on a record stream in arrival order.
type PredDynamic struct {
	Cfg Config
	Dyn *core.Dynamic
}

func (m PredDynamic) Name() string { return "pred-dynamic" }

func (m PredDynamic) React(r dataset.Record, rng *rand.Rand) Result {
	p := m.Dyn.Predict(r.DSR)
	res := m.Cfg.reactPredicted(p.Units, p.Hard, r)
	// Diagnosis (BIST or recurrence) reveals the truth; learn from it.
	m.Dyn.Observe(r.DSR, m.Cfg.Gran.UnitOf(r), r.Hard())
	return res
}

// ---- evaluation -------------------------------------------------------------

// Eval aggregates a model's reaction over a test set of detected errors.
// Besides the paper's mean LERT, it reports the p95 and maximum reaction
// times — the quantities a safety engineer provisions the hard deadline
// against (Figure 2's statically provisioned error reaction time).
type Eval struct {
	Model      string
	MeanLERT   float64
	P95LERT    float64
	MaxLERT    float64
	MeanUnits  float64
	SBISTShare float64 // fraction of errors that invoked SBIST
	N          int
}

// Evaluate runs the model over every detected error in the test set.
func Evaluate(m Model, test *dataset.Dataset, seed int64) Eval {
	rng := rand.New(rand.NewSource(seed))
	var lert, unitsSum, sbist float64
	var all []int64
	for _, r := range test.Records {
		if !r.Detected {
			continue
		}
		res := m.React(r, rng)
		lert += float64(res.Cycles)
		unitsSum += float64(res.UnitsTested)
		if res.SBISTRun {
			sbist++
		}
		all = append(all, res.Cycles)
	}
	n := len(all)
	e := Eval{Model: m.Name(), N: n}
	if n > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		e.MeanLERT = lert / float64(n)
		e.P95LERT = float64(all[min(n-1, n*95/100)])
		e.MaxLERT = float64(all[n-1])
		e.MeanUnits = unitsSum / float64(n)
		e.SBISTShare = sbist / float64(n)
	}
	return e
}
