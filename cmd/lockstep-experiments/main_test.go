package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockstep/internal/experiments"
	"lockstep/internal/inject"
	"lockstep/internal/telemetry"
)

// writeSmallCampaign saves a tiny campaign log for CLI tests.
func writeSmallCampaign(t *testing.T) string {
	t.Helper()
	cfg := experiments.Small.Config
	cfg.FlopStride = 24
	ds, err := inject.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFromDataAllExperiments(t *testing.T) {
	path := writeSmallCampaign(t)
	// Redirect stdout noise away from the test log.
	old := os.Stdout
	devnull, _ := os.Open(os.DevNull)
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close(); devnull.Close() }()

	if err := run(options{scaleName: "small", expList: "all", dataPath: path, quiet: true}); err != nil {
		t.Fatalf("run all: %v", err)
	}
	if err := run(options{scaleName: "small", expList: "table1,fig12", dataPath: path, quiet: true}); err != nil {
		t.Fatalf("run subset: %v", err)
	}
}

func TestRunSaveRoundTrip(t *testing.T) {
	path := writeSmallCampaign(t)
	save := filepath.Join(t.TempDir(), "resave.csv")
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	if err := run(options{scaleName: "small", expList: "table2", dataPath: path, savePath: save, quiet: true}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(save)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("resaved campaign differs from the loaded one")
	}
}

func TestRunWritesHTMLReport(t *testing.T) {
	path := writeSmallCampaign(t)
	html := filepath.Join(t.TempDir(), "report.html")
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	if err := run(options{scaleName: "small", expList: "table1", dataPath: path, htmlPath: html, quiet: true}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 10_000 || !strings.Contains(string(data), "<svg") {
		t.Fatalf("HTML report implausible: %d bytes", len(data))
	}
}

// TestRunWritesMetricsSnapshot: -metrics dumps a valid telemetry JSON
// snapshot carrying the campaign's outcome counters.
func TestRunWritesMetricsSnapshot(t *testing.T) {
	path := writeSmallCampaign(t)
	snapPath := filepath.Join(t.TempDir(), "snap.json")
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	if err := run(options{scaleName: "small", expList: "table1", dataPath: path, metrics: snapPath, quiet: true}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	// writeSmallCampaign ran a campaign in this process, so the default
	// registry must hold its outcome counters.
	found := false
	for _, c := range snap.Counters {
		if c.Name == "inject.outcomes" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("snapshot missing inject.outcomes counters")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(options{scaleName: "bogus-scale", expList: "all", quiet: true}); err == nil {
		t.Fatal("bad scale accepted")
	}
	if err := run(options{scaleName: "small", expList: "all", dataPath: "/nonexistent/campaign.csv", quiet: true}); err == nil {
		t.Fatal("missing data file accepted")
	}
	path := writeSmallCampaign(t)
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()
	if err := run(options{scaleName: "small", expList: "nosuchexperiment", dataPath: path, quiet: true}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunRejectsUnknownExperiment: a typo in -exp fails the run, naming
// the unknown experiment and listing the known ones, instead of printing
// the experiments it did recognise and exiting 0.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	path := writeSmallCampaign(t)
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()
	err = run(options{scaleName: "small", expList: "table2,tabel9", dataPath: path, quiet: true})
	if err == nil || !strings.Contains(err.Error(), `"tabel9"`) || !strings.Contains(err.Error(), "table2") {
		t.Fatalf("-exp table2,tabel9: got %v, want an error naming tabel9 and the known experiments", err)
	}
}
