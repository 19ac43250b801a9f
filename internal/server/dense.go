package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"lockstep/internal/core"
	"lockstep/internal/handler"
	"lockstep/internal/sbist"
)

// denseTable is the precomputed serving form of a trained *core.Table.
// The offline table path resolves a prediction per request — front-end
// latch, PTAR address mapping, entry fetch, unit-name resolution, struct
// building, reflection-based JSON encoding. All of that is invariant per
// table entry, so it is done once here, at table load: every trained
// entry (one per distinct training-set DSR) is rendered into the exact
// predictionJSON bytes /v1/predict returns for it, and the default entry
// (unobserved sets) is rendered once and split around the only varying
// field, the echoed DSR hex. The hot lookup is then one SetDict map
// probe — the PTAR address mapping — followed by one bounds-checked
// slice index and a byte copy into the caller's response buffer.
type denseTable struct {
	dict *core.SetDict

	// known[id] is the fully rendered predictionJSON object for the
	// trained entry the PTAR id addresses (its DSR is fixed: Dict.Set(id)).
	known [][]byte

	// defPrefix + hex(dsr) + defSuffix is the rendered default-entry
	// prediction for an unobserved DSR.
	defPrefix, defSuffix []byte

	// header is the response prefix up to and including the '[' that
	// opens the predictions array; the response closes with "]}" so that
	// the whole body is byte-identical to marshaling a predictResponse.
	header []byte
}

// defaultMarker stands in for the echoed DSR while rendering the default
// entry; it cannot appear in any other response field (granularity names,
// unit names and hex digits never contain '@').
const defaultMarker = "@"

// newDenseTable flattens a trained table into its serving form. It is
// built through tablePathPrediction entry by entry, which is what
// guarantees the dense path's bytes are identical to that path's output
// (the equivalence tests re-check this for every trained DSR and a
// fuzz-derived sample of unobserved ones). A prediction names units at
// the table's granularity and reads no latency, so the handler gets a
// latency config that holds the granularity alone.
func newDenseTable(table *core.Table) (*denseTable, error) {
	h := handler.New(table, sbist.Config{Gran: table.Gran})
	n := table.Dict.Len()
	d := &denseTable{dict: table.Dict, known: make([][]byte, n)}

	hdr, err := json.Marshal(predictResponse{
		Granularity: table.Gran.String(),
		TableSets:   n,
		Predictions: []predictionJSON{},
	})
	if err != nil {
		return nil, fmt.Errorf("rendering response header: %w", err)
	}
	d.header = hdr[:len(hdr)-2] // strip the "]}" that closes the empty array

	for id := 0; id < n; id++ {
		b, err := json.Marshal(tablePathPrediction(h, table.Dict.Set(id)))
		if err != nil {
			return nil, fmt.Errorf("rendering entry %d: %w", id, err)
		}
		d.known[id] = b
	}

	// Default entry: render the prediction for any unobserved DSR with a
	// marker in the echoed-DSR slot and split around it.
	pj := tablePathPrediction(h, unobservedDSR(table.Dict))
	pj.DSR = defaultMarker
	b, err := json.Marshal(pj)
	if err != nil {
		return nil, fmt.Errorf("rendering default entry: %w", err)
	}
	marker := []byte(`"` + defaultMarker + `"`)
	i := bytes.Index(b, marker)
	if i < 0 {
		return nil, fmt.Errorf("default entry render lost its DSR marker: %s", b)
	}
	d.defPrefix = b[:i+1]
	d.defSuffix = b[i+len(marker)-1:]
	return d, nil
}

// unobservedDSR finds a DSR value the dictionary does not contain, so the
// default entry can be rendered through the same table path as trained
// entries. The dictionary is finite, so scanning down from the top of the
// DSR space terminates after at most Len()+1 probes.
func unobservedDSR(dict *core.SetDict) uint64 {
	for v := ^uint64(0); ; v-- {
		if _, ok := dict.ID(v); !ok {
			return v
		}
	}
}

// tablePathPrediction is the table path /v1/predict served before the
// dense lookup existed: the handler front-end flow (latch, PTAR mapping,
// entry fetch) plus response struct building for one DSR. The dense
// table is constructed from it entry by entry, and the equivalence tests
// compare the dense path's bytes against it.
func tablePathPrediction(h *handler.Handler, dsr uint64) predictionJSON {
	p := h.Predict(dsr)
	order := make([]int, len(p.Order))
	for i, u := range p.Order {
		order[i] = int(u)
	}
	typ := "soft"
	if p.Hard {
		typ = "hard"
	}
	return predictionJSON{
		DSR:   fmt.Sprintf("%x", p.DSR),
		PTAR:  p.PTAR,
		Known: p.Known,
		Type:  typ,
		Units: p.Units,
		Order: order,
	}
}

// appendPrediction appends the rendered prediction for one DSR: a map
// probe, then either a copy of the precomputed entry or the default
// entry split around the appended hex. Allocation-free once dst has
// capacity.
func (d *denseTable) appendPrediction(dst []byte, dsr uint64) []byte {
	if id, ok := d.dict.ID(dsr); ok {
		return append(dst, d.known[id]...)
	}
	dst = append(dst, d.defPrefix...)
	dst = strconv.AppendUint(dst, dsr, 16)
	return append(dst, d.defSuffix...)
}

// deadlineStride is how many predictions are rendered between deadline
// re-checks; at tens of nanoseconds per prediction a stride costs well
// under the deadline granularity while keeping the check off the
// per-item path.
const deadlineStride = 256

// appendResponse renders the full /v1/predict response for a DSR batch
// into dst. A non-nil ctx is re-checked every deadlineStride predictions
// so a huge batch cannot overstay its request deadline.
func (d *denseTable) appendResponse(dst []byte, dsrs []uint64, ctx context.Context) ([]byte, error) {
	dst = append(dst, d.header...)
	for i, v := range dsrs {
		if ctx != nil && i%deadlineStride == 0 {
			if err := deadlineErr(ctx); err != nil {
				return dst, err
			}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = d.appendPrediction(dst, v)
	}
	return append(dst, ']', '}'), nil
}
