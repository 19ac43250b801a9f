package inject

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
)

// FuzzReadCheckpoint hammers the checkpoint decoder with corrupted input:
// every rejection must be a typed *CheckpointError (so -resume refuses
// cleanly, never panics or silently restarts), and everything accepted
// must be internally consistent and survive an encode/decode round trip.
func FuzzReadCheckpoint(f *testing.F) {
	// Seed with a genuine checkpoint...
	cfg := ckConfig()
	if err := (&cfg).normalize(); err != nil {
		f.Fatal(err)
	}
	ck := &Checkpoint{
		FP:    cfg.fingerprint(),
		Total: 8,
		Done:  []Span{{0, 2}, {4, 5}},
		Records: []dataset.Record{
			{Kernel: "ttsprk", Flop: 1, Kind: lockstep.SoftFlip, InjectCycle: 7, Detected: true, DetectCycle: 9, DSR: 3},
			{Kernel: "ttsprk", Flop: 2, Kind: lockstep.Stuck0, InjectCycle: 8, Failed: true},
			{Kernel: "ttsprk", Flop: 3, Kind: lockstep.Stuck1, InjectCycle: 9, Converged: true},
		},
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	// ...truncations at every interesting boundary...
	for _, n := range []int{0, 1, len(checkpointMagic), len(valid) / 2, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:n]...))
	}
	// ...a flipped byte (CRC must catch it), a reforged seal over a
	// mutated body, and a wrong format version.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	f.Add(reseal(bytes.Replace(valid, []byte("total 8"), []byte("total 2"), 1)))
	f.Add(reseal(bytes.Replace(valid, []byte("records 3"), []byte("records 9"), 1)))
	f.Add(reseal(bytes.Replace(valid, []byte("done 0-2 4-5"), []byte("done 4-5 0-2"), 1)))
	f.Add(reseal(bytes.Replace(valid, []byte("checkpoint v1"), []byte("checkpoint v9"), 1)))
	f.Add(reseal([]byte("lockstep-checkpoint v1\n")))
	f.Add([]byte("crc 00000000\n"))
	f.Add([]byte("garbage\ncrc deadbeef\n"))
	// ...and a mode-bearing checkpoint (slip fingerprint, 12-column
	// records) plus a reseal that corrupts its mode string, so the fuzzer
	// starts from both sides of the mode axis.
	slipCfg := ckConfig()
	slipCfg.Mode = lockstep.Mode{Kind: lockstep.ModeSlip, Slip: 9}
	if err := (&slipCfg).normalize(); err != nil {
		f.Fatal(err)
	}
	slipCk := &Checkpoint{
		FP:    slipCfg.fingerprint(),
		Total: 8,
		Done:  []Span{{0, 1}},
		Records: []dataset.Record{
			{Kernel: "ttsprk", Flop: 1, Kind: lockstep.SoftFlip, InjectCycle: 7,
				Detected: true, DetectCycle: 18, DSR: 3, Mode: slipCfg.Mode},
		},
	}
	var slipBuf bytes.Buffer
	if err := slipCk.Encode(&slipBuf); err != nil {
		f.Fatal(err)
	}
	slipValid := slipBuf.Bytes()
	f.Add(append([]byte(nil), slipValid...))
	f.Add(reseal(bytes.Replace(slipValid, []byte("slip:9"), []byte("slip:bogus"), 1)))
	f.Add(reseal(bytes.Replace(slipValid, []byte("slip:9"), []byte("tmr"), 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			var ckErr *CheckpointError
			var cfgErr *ConfigMismatchError
			if !errors.As(err, &ckErr) && !errors.As(err, &cfgErr) {
				t.Fatalf("decoder returned an untyped error: %v", err)
			}
			if ck != nil {
				t.Fatal("non-nil checkpoint alongside error")
			}
			return
		}
		if ck.DoneCount() != len(ck.Records) {
			t.Fatalf("accepted checkpoint with %d records for %d completed indices",
				len(ck.Records), ck.DoneCount())
		}
		if ck.DoneCount() > ck.Total {
			t.Fatalf("accepted checkpoint covering %d of a %d-experiment plan",
				ck.DoneCount(), ck.Total)
		}
		// Accepted input must round-trip losslessly.
		var out bytes.Buffer
		if err := ck.Encode(&out); err != nil {
			t.Fatalf("re-encode of accepted checkpoint failed: %v", err)
		}
		rt, err := DecodeCheckpoint(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip of accepted checkpoint failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeCk(ck), normalizeCk(rt)) {
			t.Fatalf("round trip changed the checkpoint:\nin  %+v\nout %+v", ck, rt)
		}
	})
}

// reseal recomputes the CRC seal over a mutated body so the corruption
// reaches the structural validators instead of being absorbed by the CRC
// check.
func reseal(sealed []byte) []byte {
	body, ok := cutCRCSeal(sealed)
	if !ok {
		// Not a sealed file (already corrupt) — seal the whole thing.
		body = sealed
	}
	out := append([]byte(nil), body...)
	return fmt.Appendf(out, "crc %08x\n", crc32.ChecksumIEEE(body))
}

// normalizeCk maps nil and empty slices together for DeepEqual.
func normalizeCk(c *Checkpoint) Checkpoint {
	out := *c
	if len(out.Done) == 0 {
		out.Done = nil
	}
	if len(out.Records) == 0 {
		out.Records = nil
	}
	if len(out.FP.Kernels) == 0 {
		out.FP.Kernels = nil
	}
	if len(out.FP.Kinds) == 0 {
		out.FP.Kinds = nil
	}
	return out
}
