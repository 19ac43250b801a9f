package inject

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"lockstep/internal/lockstep"
)

// refCampaign is the frozen pre-mode reference schedule: the exact config
// `lockstep-inject -kernels ttsprk,rspeed -cycles 3000 -stride 13 -inj 1
// -seed 3` builds. Its dataset bytes were pinned before the mode axis
// existed, so the digest below is the compatibility contract.
func refCampaign() Config {
	return Config{
		Kernels:               []string{"ttsprk", "rspeed"},
		RunCycles:             3000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            13,
		Seed:                  3,
	}
}

// refCampaignDigest is the SHA-256 of the reference campaign's CSV as
// produced by the pre-mode binary. If this test fails, the mode axis has
// leaked into the dcls serialization (or the schedule itself) and every
// previously recorded dcls dataset just silently changed identity.
const refCampaignDigest = "a8cc8cc4058c4926925a2c234001810185be09c519e5f8628a941e2ad639d81a"

// TestDCLSDatasetPinnedDigest is mode-determinism gate (a): a dcls
// campaign — the zero-value mode — must produce a dataset byte-identical
// to the pre-mode binary's, at one worker and at all of them.
func TestDCLSDatasetPinnedDigest(t *testing.T) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		cfg := refCampaign()
		cfg.Workers = workers
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != refCampaignDigest {
			t.Fatalf("workers=%d: dcls dataset digest %s, want pre-mode %s", workers, got, refCampaignDigest)
		}
	}
}

// TestSlipZeroCampaignEquivalence is mode-determinism gate (b): slip:0 is
// dcls with a zero-deep delay buffer, so a slip:0 campaign must agree
// with the dcls campaign experiment for experiment — every field except
// the mode column itself.
func TestSlipZeroCampaignEquivalence(t *testing.T) {
	cfg := refCampaign()
	dcls, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = lockstep.Mode{Kind: lockstep.ModeSlip, Slip: 0}
	slip, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slip.Len() != dcls.Len() {
		t.Fatalf("slip:0 campaign has %d experiments, dcls %d", slip.Len(), dcls.Len())
	}
	for i := range dcls.Records {
		d, s := dcls.Records[i], slip.Records[i]
		if s.Mode.String() != "slip:0" {
			t.Fatalf("record %d: mode %q, want slip:0", i, s.Mode)
		}
		s.Mode = d.Mode // the one field allowed to differ
		if d != s {
			t.Fatalf("record %d differs between dcls and slip:0:\ndcls %+v\nslip %+v", i, d, s)
		}
	}
}

// TestSlipConfigErrors is the CLI half of the Slip validation satellite:
// lockstep-inject funnels its flags straight into Config, so a typed
// ConfigError{Field: "Slip"} out of normalize is exactly what the CLI
// prints before exiting 1. The server path asserts the same rendering in
// internal/server.
func TestSlipConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		mode lockstep.Mode
		want string
	}{
		{"negative slip", lockstep.Mode{Kind: lockstep.ModeSlip, Slip: -3}, "negative slip -3"},
		{"slip eats the horizon", lockstep.Mode{Kind: lockstep.ModeSlip, Slip: 3000}, "no compare horizon"},
		{"slip count without slip mode", lockstep.Mode{Kind: lockstep.ModeTMR, Slip: 2}, "requires slip mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := refCampaign()
			cfg.Mode = tc.mode
			_, err := cfg.Fingerprint()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("got %T (%v), want *ConfigError", err, err)
			}
			if ce.Field != "Slip" {
				t.Fatalf("ConfigError field %q, want Slip", ce.Field)
			}
			if !bytes.Contains([]byte(ce.Error()), []byte(tc.want)) {
				t.Fatalf("error %q does not mention %q", ce, tc.want)
			}
		})
	}
}

// TestCrossModeDistributedRefusal is the lease half of mode-determinism
// gate (d): mode is schedule-relevant, so it is part of the campaign
// fingerprint and digest; a worker built for a slip campaign presenting
// its digest to a dcls coordinator is refused with the same typed
// StaleFingerprintError any cross-campaign join gets.
func TestCrossModeDistributedRefusal(t *testing.T) {
	cfg, dc, _ := distConfig(t)
	co, err := NewCoordinator(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	slipCfg := cfg
	slipCfg.Mode = lockstep.Mode{Kind: lockstep.ModeSlip, Slip: 8}
	runner, err := NewSpanRunner(slipCfg)
	if err != nil {
		t.Fatal(err)
	}
	if runner.Digest() == co.Digest() {
		t.Fatal("slip:8 campaign has the same digest as the dcls campaign; cross-mode spans would merge")
	}
	var sfe *StaleFingerprintError
	if _, err := co.Acquire("w", runner.Digest()); !errors.As(err, &sfe) {
		t.Fatalf("cross-mode acquire: got %v, want *StaleFingerprintError", err)
	}
	if _, err := co.Commit(&SpanSubmit{Worker: "w", Digest: runner.Digest(), Span: Span{0, 1}}); !errors.As(err, &sfe) {
		t.Fatalf("cross-mode commit: got %v, want *StaleFingerprintError", err)
	}

	// The fingerprint itself names the mode, so the checkpoint-resume
	// reflection diff reports it as ConfigMismatchError{Field: "Mode"}
	// (TestResumeConfigMismatch covers the full resume path).
	fp, err := slipCfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp.Mode != "slip:8" {
		t.Fatalf("fingerprint mode %q, want slip:8", fp.Mode)
	}
	back, err := fp.Config()
	if err != nil {
		t.Fatal(err)
	}
	if back.Mode != slipCfg.Mode {
		t.Fatalf("fingerprint round trip lost the mode: %v", back.Mode)
	}
}

// TestModeCampaignsDiffer pins that the three modes of one schedule are
// three different campaigns: distinct fingerprints, distinct digests —
// no checkpoint, lease, or job store can ever mix them.
func TestModeCampaignsDiffer(t *testing.T) {
	modes := []lockstep.Mode{
		{},
		{Kind: lockstep.ModeSlip, Slip: 0},
		{Kind: lockstep.ModeSlip, Slip: 16},
		{Kind: lockstep.ModeTMR},
	}
	seen := map[string]string{}
	for _, m := range modes {
		cfg := refCampaign()
		cfg.Mode = m
		fp, err := cfg.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[fp.Digest()]; dup {
			t.Fatalf("mode %s shares digest %s with mode %s", m, fp.Digest(), prev)
		}
		seen[fp.Digest()] = m.String()
	}
}
