package report

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"lockstep/internal/experiments"
)

var (
	ctxOnce sync.Once
	ctx     *experiments.Context
	ctxErr  error
)

func sharedContext(t *testing.T) *experiments.Context {
	t.Helper()
	ctxOnce.Do(func() {
		scale := experiments.Small
		scale.Config.FlopStride = 12
		ctx, ctxErr = experiments.NewContext(scale, nil)
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return ctx
}

func TestGenerateWellFormed(t *testing.T) {
	c := sharedContext(t)
	var buf bytes.Buffer
	if err := Generate(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	musts := []string{
		"<!DOCTYPE html", "</html>",
		"Table I", "Table II", "Table III", "Table IV",
		"Figure 4", "Figure 5", "Figure 11", "Figure 12", "Figure 14", "Figure 15",
		"<svg", "</svg>",
	}
	for _, m := range musts {
		if !strings.Contains(out, m) {
			t.Errorf("report missing %q", m)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Error("report contains NaN/Inf values")
	}
	// Every opened SVG closes.
	if strings.Count(out, "<svg") != strings.Count(out, "</svg>") {
		t.Error("unbalanced svg tags")
	}
	if buf.Len() < 10_000 {
		t.Errorf("suspiciously small report: %d bytes", buf.Len())
	}
}

func TestBarChartBasics(t *testing.T) {
	svg := BarChart("title", []string{"a", "b"}, []float64{1, 2}, "%")
	for _, m := range []string{"<svg", "</svg>", "title", "rect", ">a<", ">b<"} {
		if !strings.Contains(svg, m) {
			t.Errorf("bar chart missing %q", m)
		}
	}
	// Empty data must not panic and still closes.
	empty := BarChart("t", nil, nil, "")
	if !strings.Contains(empty, "</svg>") {
		t.Error("empty bar chart malformed")
	}
}

func TestLineChartBasics(t *testing.T) {
	svg := LineChart("sweep", []int{1, 2, 3},
		map[string][]float64{"acc": {10, 20, 30}, "spd": {5, 6, 7}}, "%")
	for _, m := range []string{"<svg", "path", "circle", "acc", "spd"} {
		if !strings.Contains(svg, m) {
			t.Errorf("line chart missing %q", m)
		}
	}
	// Deterministic output: map ordering must not leak.
	again := LineChart("sweep", []int{1, 2, 3},
		map[string][]float64{"spd": {5, 6, 7}, "acc": {10, 20, 30}}, "%")
	if svg != again {
		t.Error("line chart output depends on map iteration order")
	}
	if !strings.Contains(LineChart("x", nil, nil, ""), "</svg>") {
		t.Error("empty line chart malformed")
	}
}

func TestHistogram(t *testing.T) {
	svg := Histogram("unit", []float64{0.5, 0.3, 0.2, 0.0}, 2)
	if !strings.Contains(svg, ">s0<") || !strings.Contains(svg, ">s1<") {
		t.Error("histogram labels wrong")
	}
	if strings.Contains(svg, ">s2<") {
		t.Error("topN truncation failed")
	}
}

func TestEscape(t *testing.T) {
	if got := escape("<a&b>"); got != "&lt;a&amp;b&gt;" {
		t.Fatalf("escape: %q", got)
	}
}

func TestNiceMax(t *testing.T) {
	cases := map[float64]float64{0: 1, 0.7: 1, 3: 5, 12: 20, 87: 100, 130000: 200000}
	for in, want := range cases {
		if got := niceMax(in); got != want {
			t.Errorf("niceMax(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{5: "5", 2500: "2.5k", 1_200_000: "1.2M"}
	for in, want := range cases {
		if got := fmtTick(in); got != want {
			t.Errorf("fmtTick(%v) = %q, want %q", in, got, want)
		}
	}
}
