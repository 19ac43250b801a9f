package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lockstep/internal/atomicfile"
	"lockstep/internal/core"
	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
	"lockstep/internal/telemetry"
)

// This file is the hot-table-reload layer: server-side training and
// atomic swap of the serving table.
//
// The live artifact is a tableBundle — the trained *core.Table, its
// precomputed denseTable, the serialized table image and a version
// digest — built once and never mutated afterwards.
// The bundle behind the single atomic.Pointer is what /v1/predict serves:
// one Load() at the top of the request pins everything the response is
// rendered from, so a concurrent swap can never mix two tables inside one
// response. The version rides every predict response as its ETag, which
// is what the swap-atomicity race test keys on.

// maxTablesBody bounds a POST /v1/tables body; an inline dataset CSV for
// a laptop-scale campaign is a few hundred KB.
const maxTablesBody = 8 << 20

// activeFile names the file inside the tables directory that records the
// last-activated version; a restarted server adopts it.
const activeFile = "ACTIVE"

// tableBundle is one immutable serving artifact. Everything a predict
// request reads hangs off the one pointer: the bundle is fully built
// before it is published and no field is written afterwards.
type tableBundle struct {
	table *core.Table
	dense *denseTable
	// image is the serialized form (core.Table.WriteTo) — the same bytes
	// lockstep-train -o writes — and version is the first 8 bytes of the
	// SHA-256 over the image (plus the mode string for non-dcls bundles),
	// hex-encoded: two trainings that produce byte-identical images under
	// the same mode are the same version.
	image   []byte
	version string
	etag    string // `"` + version + `"`, precomputed for the hot path
	source  string // "startup", "upload", "campaign <id>", "adopted"
	// mode is the lockstep mode of the campaign the training dataset came
	// from (the zero value is dcls). A predict request that names a mode
	// via the X-Lockstep-Mode header is refused with 409 mode_mismatch
	// when it does not match: a table trained on slip:N outcomes encodes
	// slip-shifted detection latencies and must not silently serve a dcls
	// (or tmr) deployment.
	mode lockstep.Mode
}

// newTableBundle builds the immutable serving form of a trained table.
func newTableBundle(table *core.Table, source string, mode lockstep.Mode) (*tableBundle, error) {
	var buf bytes.Buffer
	if _, err := table.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("serializing table: %w", err)
	}
	// The mode folds into the version for non-dcls bundles: two trainings
	// with byte-identical images are the same version only under the same
	// mode, so a tmr table can never dedupe onto a slip bundle (their
	// serving contracts differ even when the learned entries coincide).
	// dcls versions stay the pure image hash — every pre-mode .lspt file
	// keeps its identity.
	h := sha256.New()
	h.Write(buf.Bytes())
	if mode != (lockstep.Mode{}) {
		h.Write([]byte(mode.String()))
	}
	sum := h.Sum(nil)
	version := hex.EncodeToString(sum[:8])
	dense, err := newDenseTable(table)
	if err != nil {
		return nil, err
	}
	return &tableBundle{
		table:   table,
		dense:   dense,
		image:   buf.Bytes(),
		version: version,
		etag:    `"` + version + `"`,
		source:  source,
		mode:    mode,
	}, nil
}

// tableManager owns the table registry and the active-bundle pointer.
// Registration and activation serialize on mu; the predict path never
// touches mu — it does exactly one active.Load().
type tableManager struct {
	dir string // "" = in-memory only; else <DataDir>/tables
	reg *telemetry.Registry

	mu      sync.Mutex
	bundles map[string]*tableBundle
	order   []string // registration order, for listing

	active atomic.Pointer[tableBundle]
	swaps  *telemetry.Counter
}

// newTableManager builds the registry, adopting any persisted table
// images (and the last-activated version) from the data directory, then
// registering the startup table from Options.Table. A persisted active
// version wins over -table, so a restart always serves the table the
// operator last activated; the startup table is activated only when
// nothing was persisted.
func newTableManager(opt Options) (*tableManager, error) {
	m := &tableManager{
		reg:     opt.Registry,
		bundles: map[string]*tableBundle{},
		swaps:   opt.Registry.Counter("server.table_swaps"),
	}
	if opt.DataDir != "" {
		m.dir = filepath.Join(opt.DataDir, "tables")
		if err := os.MkdirAll(m.dir, 0o755); err != nil {
			return nil, err
		}
		if err := m.adopt(); err != nil {
			return nil, err
		}
	}
	if opt.Table != nil {
		b, err := newTableBundle(opt.Table, "startup", lockstep.Mode{})
		if err != nil {
			return nil, err
		}
		b, err = m.register(b)
		if err != nil {
			return nil, err
		}
		if m.active.Load() == nil {
			if _, err := m.activate(b.version); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// adopt loads every persisted table image and re-activates the persisted
// active version. Image files whose content does not hash back to their
// filename are refused — a table the server swaps in must be exactly the
// bytes that were activated. An adopted bundle is already on disk, so it
// is published without being written again.
func (m *tableManager) adopt() error {
	names, err := filepath.Glob(filepath.Join(m.dir, "*.lspt"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		table, err := core.ReadTable(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("table image %s: %w", name, err)
		}
		// The .lspt image format predates modes and cannot carry one;
		// non-dcls bundles persist their mode in a <version>.mode sidecar.
		mode := lockstep.Mode{}
		if data, err := os.ReadFile(strings.TrimSuffix(name, ".lspt") + ".mode"); err == nil {
			mode, err = lockstep.ParseMode(strings.TrimSpace(string(data)))
			if err != nil {
				return fmt.Errorf("table mode sidecar for %s: %w", name, err)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
		b, err := newTableBundle(table, "adopted", mode)
		if err != nil {
			return fmt.Errorf("table image %s: %w", name, err)
		}
		if want := strings.TrimSuffix(filepath.Base(name), ".lspt"); b.version != want {
			return fmt.Errorf("table image %s hashes to version %s", name, b.version)
		}
		m.bundles[b.version] = b
		m.order = append(m.order, b.version)
		m.reg.Counter("server.tables", telemetry.L("event", "adopted")).Inc()
	}
	data, err := os.ReadFile(filepath.Join(m.dir, activeFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	version := strings.TrimSpace(string(data))
	if version == "" {
		return nil
	}
	if _, err := m.activate(version); err != nil {
		return fmt.Errorf("persisted active table: %w", err)
	}
	return nil
}

// register persists a bundle and then adds it to the registry
// (idempotently — re-training the same dataset yields the same version
// and keeps the first bundle). Persistence comes before visibility: a
// version that can be listed or activated is one a restart adopts, and a
// failed write leaves nothing registered, so a retry writes again. A
// non-dcls bundle's .mode sidecar is written before its image: adoption
// reads the mode from the sidecar, and an orphan sidecar matches no
// *.lspt glob.
func (m *tableManager) register(b *tableBundle) (*tableBundle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if existing, ok := m.bundles[b.version]; ok {
		return existing, nil
	}
	if m.dir != "" {
		if b.mode != (lockstep.Mode{}) {
			if err := atomicfile.Write(filepath.Join(m.dir, b.version+".mode"), []byte(b.mode.String()+"\n")); err != nil {
				return nil, err
			}
		}
		if err := atomicfile.Write(filepath.Join(m.dir, b.version+".lspt"), b.image); err != nil {
			return nil, err
		}
	}
	m.bundles[b.version] = b
	m.order = append(m.order, b.version)
	return b, nil
}

// activate swaps the serving pointer to an already-registered version and
// persists the choice, so a restart adopts it. It returns whether the
// active version actually changed (re-activating the live version is an
// idempotent no-op). The persist happens before the swap: a version the
// live pointer serves is always one a restart can come back to.
func (m *tableManager) activate(version string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.bundles[version]
	if !ok {
		return false, &apiError{Status: http.StatusNotFound, Code: "unknown_table",
			Message: fmt.Sprintf("no table version %q", version), Field: "version"}
	}
	if m.active.Load() == b {
		return false, nil
	}
	if m.dir != "" {
		if err := atomicfile.Write(filepath.Join(m.dir, activeFile), []byte(version+"\n")); err != nil {
			return false, err
		}
	}
	m.active.Store(b)
	m.swaps.Inc()
	m.reg.Counter("server.tables", telemetry.L("event", "activated")).Inc()
	return true, nil
}

// current is the predict path's single load of the serving bundle.
func (m *tableManager) current() *tableBundle { return m.active.Load() }

// get looks up a registered version.
func (m *tableManager) get(version string) *tableBundle {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bundles[version]
}

// list snapshots the registry in registration order.
func (m *tableManager) list() []*tableBundle {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*tableBundle, 0, len(m.order))
	for _, v := range m.order {
		out = append(out, m.bundles[v])
	}
	return out
}

// trainSpec is a resolved server-side training request.
type trainSpec struct {
	gran core.Granularity
	topK int
	frac float64
	seed int64
}

// train runs the shared training pipeline (core.TrainSplit — the exact
// path lockstep-train takes) over a dataset, registers the resulting
// bundle and returns it.
func (m *tableManager) train(ds *dataset.Dataset, spec trainSpec, source string) (*tableBundle, error) {
	mode, err := ds.Mode()
	if err != nil {
		return nil, &apiError{Status: http.StatusBadRequest, Code: "invalid_dataset",
			Message: err.Error(), Field: "dataset"}
	}
	rng := rand.New(rand.NewSource(spec.seed))
	table, _, _ := core.TrainSplit(ds, rng, spec.gran, spec.topK, spec.frac)
	b, err := newTableBundle(table, source, mode)
	if err != nil {
		return nil, err
	}
	b, err = m.register(b)
	if err != nil {
		return nil, err
	}
	m.reg.Counter("server.tables", telemetry.L("event", "trained")).Inc()
	return b, nil
}

// trainFromFile trains from a dataset CSV on disk — the form a finished
// campaign's dataset is persisted in, and exactly what lockstep-train
// -data would read offline.
func (m *tableManager) trainFromFile(path string, spec trainSpec, source string) (*tableBundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	return m.train(ds, spec, source)
}

// ---- request decoding ----------------------------------------------------

// tablesRequest is the POST /v1/tables body: the dataset to train from
// (an inline CSV or a finished campaign's job ID, exactly one) plus the
// training parameters lockstep-train exposes as flags.
type tablesRequest struct {
	// Campaign references a finished campaign job's dataset by ID.
	Campaign string `json:"campaign,omitempty"`
	// DatasetCSV is an inline campaign log in the dataset CSV format.
	DatasetCSV string `json:"dataset_csv,omitempty"`
	// Granularity is 7 (coarse) or 13 (fine); 0 means 7.
	Granularity int `json:"granularity,omitempty"`
	// TopK limits units stored per entry (0 = all).
	TopK int `json:"topk,omitempty"`
	// TrainFrac is the training fraction of the split in (0, 1]; 0 means
	// 1 — server-side training defaults to every record, since the
	// held-out evaluation already happened offline.
	TrainFrac float64 `json:"train_frac,omitempty"`
	// Seed seeds the split; omitted means 1 — the lockstep-train CLI's
	// default and the seed campaign-triggered training uses, so an
	// explicit train with default parameters reproduces the same
	// content-addressed version.
	Seed *int64 `json:"seed,omitempty"`
	// Activate swaps the trained table in immediately (default true;
	// send false to stage a version for a later explicit activate).
	Activate *bool `json:"activate,omitempty"`
}

// parseTablesRequest decodes and validates a POST /v1/tables body into a
// resolved training spec. It is the fuzz surface of FuzzTablesRequest:
// any input either resolves or fails with a structured 4xx *apiError.
func parseTablesRequest(data []byte) (tablesRequest, trainSpec, error) {
	var req tablesRequest
	if err := decodeJSON(data, &req); err != nil {
		return req, trainSpec{}, err
	}
	if (req.Campaign == "") == (req.DatasetCSV == "") {
		return req, trainSpec{}, &apiError{Status: http.StatusBadRequest, Code: "bad_request",
			Message: "exactly one of campaign or dataset_csv is required", Field: "campaign"}
	}
	spec := trainSpec{topK: req.TopK, frac: req.TrainFrac, seed: 1}
	if req.Seed != nil {
		spec.seed = *req.Seed
	}
	switch req.Granularity {
	case 0, 7:
		spec.gran = core.Coarse7
	case 13:
		spec.gran = core.Fine13
	default:
		return req, trainSpec{}, &apiError{Status: http.StatusBadRequest, Code: "invalid_config",
			Message: fmt.Sprintf("granularity must be 7 or 13, not %d", req.Granularity), Field: "granularity"}
	}
	if req.TopK < 0 {
		return req, trainSpec{}, &apiError{Status: http.StatusBadRequest, Code: "invalid_config",
			Message: "topk must be non-negative", Field: "topk"}
	}
	if spec.frac == 0 {
		spec.frac = 1
	}
	// NaN never compares > or <=, so it falls through to the rejection.
	if !(spec.frac > 0 && spec.frac <= 1) {
		return req, trainSpec{}, &apiError{Status: http.StatusBadRequest, Code: "invalid_config",
			Message: fmt.Sprintf("train_frac must be in (0, 1], not %v", req.TrainFrac), Field: "train_frac"}
	}
	return req, spec, nil
}

// ---- HTTP handlers -------------------------------------------------------

// requireTable resolves the serving bundle or fails with the stable 503
// the predict API has always answered before a table is loaded.
func (s *Server) requireTable() (*tableBundle, error) {
	if b := s.tables.current(); b != nil {
		return b, nil
	}
	return nil, errf(http.StatusServiceUnavailable, "table_not_loaded",
		"no prediction table loaded (start lockstep-serve with -table, or POST /v1/tables)")
}

// tableJSON is the wire form of one registered table version.
type tableJSON struct {
	Version     string `json:"version"`
	Granularity string `json:"granularity"`
	// Mode is the lockstep mode of the training campaign; omitted for
	// dcls, the pre-mode wire shape.
	Mode      string `json:"mode,omitempty"`
	Sets      int    `json:"sets"`
	TopK      int    `json:"topk,omitempty"`
	TableBits int    `json:"table_bits"`
	Source    string `json:"source"`
	Active    bool   `json:"active"`
}

func bundleJSON(b *tableBundle, active bool) tableJSON {
	j := tableJSON{
		Version:     b.version,
		Granularity: b.table.Gran.String(),
		Sets:        b.table.Dict.Len(),
		TopK:        b.table.TopK,
		TableBits:   b.table.TableBits(),
		Source:      b.source,
		Active:      active,
	}
	if b.mode != (lockstep.Mode{}) {
		j.Mode = b.mode.String()
	}
	return j
}

// handleTablesList serves GET /v1/tables: every registered version, which
// one is live, and how many swaps the process has performed — the
// operator's view of what /v1/predict is serving right now.
func (s *Server) handleTablesList(w http.ResponseWriter, r *http.Request) error {
	cur := s.tables.current()
	out := struct {
		Active string      `json:"active,omitempty"`
		Swaps  int64       `json:"swaps"`
		Tables []tableJSON `json:"tables"`
	}{Swaps: s.tables.swaps.Value(), Tables: []tableJSON{}}
	if cur != nil {
		out.Active = cur.version
	}
	for _, b := range s.tables.list() {
		out.Tables = append(out.Tables, bundleJSON(b, b == cur))
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// trainResponse is the POST /v1/tables (and activate) response.
type trainResponse struct {
	Table    tableJSON `json:"table"`
	Swapped  bool      `json:"swapped"`
	Swaps    int64     `json:"swaps"`
	Training struct {
		Records  int `json:"records"`
		Detected int `json:"detected"`
	} `json:"training"`
}

// handleTablesCreate serves POST /v1/tables: train a table server-side —
// from an uploaded dataset or a finished campaign's — through the same
// pipeline lockstep-train runs offline, register it as an immutable
// version, and (by default) atomically swap it into the predict path.
func (s *Server) handleTablesCreate(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(w, r, maxTablesBody)
	if err != nil {
		return err
	}
	req, spec, err := parseTablesRequest(body)
	if err != nil {
		return err
	}

	var (
		ds     *dataset.Dataset
		source string
	)
	if req.Campaign != "" {
		m, err := s.requireJobs()
		if err != nil {
			return err
		}
		j := m.get(req.Campaign)
		if j == nil {
			return &apiError{Status: http.StatusNotFound, Code: "unknown_job",
				Message: fmt.Sprintf("no campaign job %q", req.Campaign), Field: "campaign"}
		}
		if st := j.status(); st.State != stateDone {
			return &apiError{Status: http.StatusConflict, Code: "not_done",
				Message: fmt.Sprintf("campaign %s is %s (%d/%d experiments); train once it is done",
					j.ID, st.State, st.Done, st.Total), Field: "campaign"}
		}
		f, err := os.Open(m.dsPath(j.ID))
		if err != nil {
			return errf(http.StatusInternalServerError, "dataset_missing",
				"campaign %s is done but its dataset is unreadable: %v", j.ID, err)
		}
		ds, err = dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return errf(http.StatusInternalServerError, "dataset_missing",
				"campaign %s dataset: %v", j.ID, err)
		}
		source = "campaign " + j.ID
	} else {
		ds, err = dataset.ReadCSV(strings.NewReader(req.DatasetCSV))
		if err != nil {
			return &apiError{Status: http.StatusBadRequest, Code: "invalid_dataset",
				Message: fmt.Sprintf("dataset_csv: %v", err), Field: "dataset_csv"}
		}
		source = "upload"
	}
	if err := deadlineErr(r.Context()); err != nil {
		return err
	}

	b, err := s.tables.train(ds, spec, source)
	if err != nil {
		return err
	}
	swapped := false
	if req.Activate == nil || *req.Activate {
		swapped, err = s.tables.activate(b.version)
		if err != nil {
			return err
		}
	}
	resp := trainResponse{
		Table:   bundleJSON(b, s.tables.current() == b),
		Swapped: swapped,
		Swaps:   s.tables.swaps.Value(),
	}
	resp.Training.Records = ds.Len()
	resp.Training.Detected = ds.Manifested().Len()
	writeJSON(w, http.StatusCreated, resp)
	return nil
}

// handleTableActivate serves POST /v1/tables/{version}/activate — the
// rollback path: any registered version (trained, uploaded, adopted from
// a previous process) can be swapped back in atomically.
func (s *Server) handleTableActivate(w http.ResponseWriter, r *http.Request) error {
	version := r.PathValue("version")
	swapped, err := s.tables.activate(version)
	if err != nil {
		return err
	}
	b := s.tables.get(version)
	writeJSON(w, http.StatusOK, trainResponse{
		Table:   bundleJSON(b, true),
		Swapped: swapped,
		Swaps:   s.tables.swaps.Value(),
	})
	return nil
}

// TableVersion reports the live table's version ("" before any table has
// been activated) — lockstep-serve logs it at startup.
func (s *Server) TableVersion() string {
	if b := s.tables.current(); b != nil {
		return b.version
	}
	return ""
}
