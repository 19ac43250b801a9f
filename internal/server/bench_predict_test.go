package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lockstep/internal/core"
	"lockstep/internal/handler"
	"lockstep/internal/loadgen"
	"lockstep/internal/sbist"
)

// loadPredictCorpus returns the request bodies of the FuzzPredictRequest
// seed corpus under testdata/fuzz — the shared input set for the decoder
// benchmarks and the decoder-reference test.
func loadPredictCorpus(t testing.TB) [][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzPredictRequest")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fuzz corpus: %v", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			const prefix = "[]byte("
			if !strings.HasPrefix(line, prefix) || !strings.HasSuffix(line, ")") {
				continue
			}
			s, err := strconv.Unquote(line[len(prefix) : len(line)-1])
			if err != nil {
				t.Fatalf("corpus %s: unquoting %q: %v", f.Name(), line, err)
			}
			out = append(out, []byte(s))
		}
	}
	if len(out) == 0 {
		t.Fatalf("no corpus entries under %s", dir)
	}
	return out
}

// batchBody builds a valid n-DSR batch request mixing hex and numeric
// encodings of trained and unobserved DSRs, seeded from the fixture
// table.
func batchBody(t testing.TB, n int) []byte {
	t.Helper()
	_, _, table := fixtureData()
	var b bytes.Buffer
	b.WriteString(`{"dsrs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		dsr := table.Dict.Set(i % table.Dict.Len())
		if i%3 == 2 {
			dsr = ^dsr // unobserved: exercise the default-entry render
		}
		if i%2 == 0 {
			fmt.Fprintf(&b, `"%x"`, dsr)
		} else {
			fmt.Fprintf(&b, `%d`, dsr)
		}
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// defaultMix is loadgen's default request mix over table's trained
// sets — half trained, half unknown, half in hex — as the benchmark's
// serve workloads send it.
func defaultMix(table *core.Table) loadgen.Control {
	c := loadgen.Control{HexProb: 0.5, KnownProb: 0.5, Seed: 1}
	for id := 0; id < table.Dict.Len(); id++ {
		c.Known = append(c.Known, table.Dict.Set(id))
	}
	return c
}

// mixBatch256 is one 256-DSR request body in the default mix, the shape
// of the benchmark's serve-batch workload.
func mixBatch256(table *core.Table) []byte {
	c := defaultMix(table)
	c.Batch = 256
	return c.Bodies(0)[0]
}

// BenchmarkPredictDecode measures the zero-alloc request scanner over
// the FuzzPredictRequest seed corpus (valid and invalid bodies alike,
// round-robin), plus the two shapes that dominate production traffic.
// The batch256 pair weighs the scanner against the encoding/json
// reference decoder on one default-mix 256-DSR body.
func BenchmarkPredictDecode(b *testing.B) {
	corpus := loadPredictCorpus(b)
	single := []byte(`{"dsr":"1a2b"}`)
	batch := batchBody(b, 1024)
	_, _, table := fixtureData()
	mix := mixBatch256(table)

	b.Run("corpus", func(b *testing.B) {
		var dst []uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, _ := parsePredictInto(corpus[i%len(corpus)], dst[:0], 1024)
			if got != nil {
				dst = got
			}
		}
	})
	b.Run("single", func(b *testing.B) {
		var dst []uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := parsePredictInto(single, dst[:0], 1024)
			if err != nil {
				b.Fatal(err)
			}
			dst = got
		}
	})
	b.Run("batch1024", func(b *testing.B) {
		var dst []uint64
		b.SetBytes(int64(len(batch)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := parsePredictInto(batch, dst[:0], 1024)
			if err != nil {
				b.Fatal(err)
			}
			dst = got
		}
	})
	b.Run("batch256", func(b *testing.B) {
		var dst []uint64
		b.SetBytes(int64(len(mix)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := parsePredictInto(mix, dst[:0], 1024)
			if err != nil {
				b.Fatal(err)
			}
			dst = got
		}
	})
	b.Run("batch256-reference", func(b *testing.B) {
		b.SetBytes(int64(len(mix)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceParsePredict(mix, 1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPredictRender weighs the dense render against the table path
// it precomputes, on the DSRs of one default-mix 256-DSR body: dense
// copies each prerendered prediction into a reused buffer; tablepath
// runs the handler's predict flow per DSR and encodes the response with
// encoding/json.
func BenchmarkPredictRender(b *testing.B) {
	_, _, table := fixtureData()
	cfg := sbist.NewConfig(table.Gran, nil, sbist.OnChipTableAccess)
	dense, err := newDenseTable(table, cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := handler.New(table, cfg)
	dsrs, err := parsePredictInto(mixBatch256(table), nil, 1024)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("dense", func(b *testing.B) {
		var out []byte
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out, err = dense.appendResponse(out[:0], dsrs, ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tablepath", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp := predictResponse{
				Granularity: table.Gran.String(),
				TableSets:   table.Dict.Len(),
				Predictions: make([]predictionJSON, len(dsrs)),
			}
			for j, dsr := range dsrs {
				resp.Predictions[j] = tablePathPrediction(h, dsr)
			}
			if _, err := json.Marshal(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPredictE2E measures the serving hot path end to end — body
// bytes in, response bytes out: pooled decode, dense DSR→prediction
// lookup, response render. This is the unit the CI alloc guard holds at
// zero allocs/op.
func BenchmarkPredictE2E(b *testing.B) {
	_, _, table := fixtureData()
	s, err := New(Options{Table: table})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		body []byte
	}{
		{"single-known", []byte(fmt.Sprintf(`{"dsr":"%x"}`, table.Dict.Set(0)))},
		{"single-unknown", []byte(`{"dsr":"3fffffffffffffff"}`)},
		{"batch1024", batchBody(b, 1024)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sc := &predictScratch{}
			if _, _, err := s.predictBytes(ctx, s.tables.current(), sc, tc.body); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(tc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.predictBytes(ctx, s.tables.current(), sc, tc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
