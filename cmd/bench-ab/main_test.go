package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s != (summary{2, 3, 4}) {
		t.Errorf("quartiles of 1..5 = %+v, want {2 3 4}", s)
	}
	s = summarize([]float64{10, 20})
	if s != (summary{12.5, 15, 17.5}) {
		t.Errorf("quartiles of {10, 20} = %+v, want {12.5 15 17.5}", s)
	}
	if s := summarize([]float64{7}); s != (summary{7, 7, 7}) {
		t.Errorf("quartiles of {7} = %+v", s)
	}
}

func TestWorseAgainstBound(t *testing.T) {
	for _, tc := range []struct {
		dir        string
		base, chg  float64
		wantWorse  bool
		wantBetter bool
	}{
		{"higher", 100, 74, true, false},
		{"higher", 100, 76, false, false},
		{"higher", 100, 130, false, true},
		{"lower", 100, 126, true, false},
		{"lower", 100, 124, false, false},
		{"lower", 100, 80, false, true},
	} {
		if got := worse(tc.dir, tc.base, tc.chg, 0.25); got != tc.wantWorse {
			t.Errorf("worse(%s, %v, %v) = %v", tc.dir, tc.base, tc.chg, got)
		}
		if got := better(tc.dir, tc.chg, tc.base); got != tc.wantBetter {
			t.Errorf("better(%s, %v, %v) = %v", tc.dir, tc.chg, tc.base, got)
		}
	}
}

// runs builds results that report one metric with the given values.
func runs(name string, vals ...float64) []result {
	var rs []result
	for _, v := range vals {
		r := result{Correct: true, Metrics: map[string]struct {
			Value float64 `json:"value"`
		}{}}
		r.Metrics[name] = struct {
			Value float64 `json:"value"`
		}{v}
		rs = append(rs, r)
	}
	return rs
}

func TestReport(t *testing.T) {
	bound := 0.25
	specs := []metricSpec{{Name: "exp_per_s", Better: "higher", Bound: &bound}}
	var out bytes.Buffer
	if !report(&out, specs, runs("exp_per_s", 100, 101, 99), runs("exp_per_s", 120, 119, 121)) {
		t.Fatalf("a faster change fails its bound:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "3/3") || !strings.Contains(out.String(), "yes") {
		t.Errorf("report lacks the pairs won or the IQR verdict:\n%s", out.String())
	}
	out.Reset()
	if report(&out, specs, runs("exp_per_s", 100, 101, 99), runs("exp_per_s", 70, 71, 69)) {
		t.Errorf("a change 30%% slower passes a 25%% bound:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Errorf("report does not name the failed bound:\n%s", out.String())
	}
}

// TestReportPairsByIndex pins that a run lacking a metric drops its
// whole pair from the pairs-won count instead of shifting the pairing.
func TestReportPairsByIndex(t *testing.T) {
	specs := []metricSpec{{Name: "exp_per_s", Better: "higher"}}
	base := append(runs("other", 0), runs("exp_per_s", 101, 99)...)
	change := runs("exp_per_s", 50, 120, 121)
	var out bytes.Buffer
	report(&out, specs, base, change)
	if !strings.Contains(out.String(), " 2/2 ") {
		t.Errorf("want 2 of the 2 pairs in which both runs report the metric won:\n%s", out.String())
	}
}
