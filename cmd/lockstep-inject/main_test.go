package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"lockstep/internal/clitest"
	"lockstep/internal/inject"
	"lockstep/internal/telemetry"
)

func init() { clitest.Register(main) }

func TestMain(m *testing.M) { clitest.Dispatch(m) }

// campaignArgs is the small reference campaign every subprocess run uses.
func campaignArgs(out, metrics string, workers int) []string {
	args := []string{
		"-o", out,
		"-kernels", "ttsprk",
		"-cycles", "4000",
		"-stride", "24",
		"-seed", "5",
		"-summary=false",
		fmt.Sprintf("-workers=%d", workers),
	}
	if metrics != "" {
		args = append(args, "-metrics", metrics)
	}
	return args
}

// TestMetricsSnapshotAndDeterminism is the telemetry acceptance test,
// run against the real binary (each subprocess has a fresh Default
// registry): the outcome counters in the -metrics snapshot must sum
// exactly to Config.Total(), and the emitted dataset must be
// byte-identical with and without -metrics, at workers=1 and
// workers=NumCPU.
func TestMetricsSnapshotAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	csvPlain := filepath.Join(dir, "plain.csv")
	csvMetrics := filepath.Join(dir, "metrics.csv")
	csvParallel := filepath.Join(dir, "parallel.csv")
	snap1 := filepath.Join(dir, "snap1.json")
	snapN := filepath.Join(dir, "snapN.json")

	for _, c := range []struct {
		args []string
	}{
		{campaignArgs(csvPlain, "", 1)},
		{campaignArgs(csvMetrics, snap1, 1)},
		{campaignArgs(csvParallel, snapN, runtime.NumCPU())},
	} {
		if res := clitest.Exec(t, c.args...); res.Code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", c.args, res.Code, res.Stderr)
		}
	}

	plain, err := os.ReadFile(csvPlain)
	if err != nil {
		t.Fatal(err)
	}
	withMetrics, err := os.ReadFile(csvMetrics)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(csvParallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, withMetrics) {
		t.Fatal("dataset changed when -metrics was enabled")
	}
	if !bytes.Equal(plain, parallel) {
		t.Fatalf("dataset changed at workers=%d", runtime.NumCPU())
	}

	total, err := inject.Config{
		Kernels:               []string{"ttsprk"},
		RunCycles:             4000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            24,
		Seed:                  5,
	}.Total()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{snap1, snapN} {
		var snap telemetry.Snapshot
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("%s: snapshot is not valid JSON: %v", path, err)
		}
		var sum, experiments int64
		for _, c := range snap.Counters {
			switch c.Name {
			case "inject.outcomes":
				sum += c.Value
			case "inject.experiments":
				experiments = c.Value
			}
		}
		if sum != int64(total) {
			t.Fatalf("%s: outcome counters sum to %d, want Config.Total()=%d", path, sum, total)
		}
		if experiments != int64(total) {
			t.Fatalf("%s: inject.experiments=%d, want %d", path, experiments, total)
		}
		// The campaign must also have recorded detection latencies and
		// DSR population stats for the detected subset.
		var foundLat, foundPop bool
		for _, h := range snap.Histograms {
			switch h.Name {
			case "inject.detect_latency":
				foundLat = h.Count > 0
			case "lockstep.dsr_popcount":
				foundPop = h.Count > 0
			}
		}
		if !foundLat || !foundPop {
			t.Fatalf("%s: missing campaign histograms (latency=%v popcount=%v)", path, foundLat, foundPop)
		}
	}
}

// TestKillResumeEquivalence is the crash-safety acceptance test, against
// the real binary: a campaign SIGKILLed at a seeded-random checkpoint
// boundary and resumed with -resume must emit a dataset byte-identical to
// an uninterrupted run — at workers=1 and workers=NumCPU.
func TestKillResumeEquivalence(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted reference.
	refCSV := filepath.Join(dir, "ref.csv")
	if res := clitest.Exec(t, campaignArgs(refCSV, "", 1)...); res.Code != 0 {
		t.Fatalf("reference campaign: exit %d, stderr: %s", res.Code, res.Stderr)
	}
	want, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}
	total := bytes.Count(want, []byte("\n")) - 1 // rows minus header

	rng := rand.New(rand.NewSource(5)) // the campaign seed, reused for kill points
	for _, workers := range []int{1, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			out := filepath.Join(dir, fmt.Sprintf("w%d.csv", workers))
			ck := filepath.Join(dir, fmt.Sprintf("w%d.lsc", workers))
			args := append(campaignArgs(out, "", workers),
				"-checkpoint", ck, "-checkpoint-every", "10")

			// Kill once the checkpoint covers a seeded random fraction of
			// the plan; the atomic rename guarantees every poll sees a
			// complete file or none.
			target := 1 + rng.Intn(total/2)
			p := clitest.Start(t, args...)
			for {
				snap, err := inject.ReadCheckpoint(ck)
				if err == nil && snap.DoneCount() >= target {
					break
				}
				if err != nil && !os.IsNotExist(err) {
					t.Fatalf("poll checkpoint: %v", err)
				}
				time.Sleep(time.Millisecond)
			}
			res := p.Kill()
			if res.Code == 0 {
				// The campaign beat the kill; the resume below must then be
				// a pure restore, still byte-identical.
				t.Logf("campaign finished before SIGKILL landed (target %d/%d)", target, total)
			}

			resume := append(args, "-resume")
			if res := clitest.Exec(t, resume...); res.Code != 0 {
				t.Fatalf("resume: exit %d, stderr: %s", res.Code, res.Stderr)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("resumed dataset (killed at >=%d/%d) is not byte-identical to the uninterrupted run", target, total)
			}
		})
	}
}

// TestCLIResumeRefusals: the binary must exit 1 with a diagnostic when
// -resume meets a corrupt checkpoint or a changed schedule flag — never
// silently restart the campaign.
func TestCLIResumeRefusals(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.csv")
	ck := filepath.Join(dir, "ck.lsc")
	args := append(campaignArgs(out, "", 1), "-checkpoint", ck)
	if res := clitest.Exec(t, args...); res.Code != 0 {
		t.Fatalf("campaign: exit %d, stderr: %s", res.Code, res.Stderr)
	}

	// Changed schedule flag: -seed differs from the checkpointed campaign.
	mismatch := append(campaignArgs(out, "", 1), "-checkpoint", ck, "-resume")
	for i, a := range mismatch {
		if a == "-seed" {
			mismatch[i+1] = "6"
		}
	}
	res := clitest.Exec(t, mismatch...)
	if res.Code != 1 || !strings.Contains(res.Stderr, "Seed") {
		t.Fatalf("resume with changed -seed: exit %d, stderr %q (want exit 1 naming Seed)", res.Code, res.Stderr)
	}

	// Corrupt checkpoint: flip one byte.
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(ck, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res = clitest.Exec(t, append(args, "-resume")...)
	if res.Code != 1 || !strings.Contains(res.Stderr, "checkpoint") {
		t.Fatalf("resume from corrupt checkpoint: exit %d, stderr %q (want exit 1 mentioning checkpoint)", res.Code, res.Stderr)
	}
}

// TestDistributedKillWorkerEquivalence is the distributed-campaign
// acceptance test against real binaries: a coordinator and two worker
// processes over real HTTP, with worker A SIGKILLed mid-span. The lease
// expires, the span is re-issued to worker B, and the merged dataset
// must be byte-identical to a plain single-process run.
func TestDistributedKillWorkerEquivalence(t *testing.T) {
	dir := t.TempDir()

	refCSV := filepath.Join(dir, "ref.csv")
	if res := clitest.Exec(t, campaignArgs(refCSV, "", 1)...); res.Code != 0 {
		t.Fatalf("reference campaign: exit %d, stderr: %s", res.Code, res.Stderr)
	}
	want, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}

	distCSV := filepath.Join(dir, "dist.csv")
	co := clitest.Start(t, append(campaignArgs(distCSV, "", 1),
		"-distribute", "127.0.0.1:0", "-lease-size", "8", "-lease-ttl", "250ms", "-summary=true")...)
	joinLine := co.WaitOutput("join with: lockstep-inject -join ", 30*time.Second)
	_, url, _ := strings.Cut(joinLine, "join with: lockstep-inject -join ")
	url = strings.TrimSpace(strings.SplitN(url, "\n", 2)[0])

	// Worker A: kill it the moment it starts executing its first span.
	// Whether it died mid-span is read from everything it wrote before
	// the kill landed, not from the output seen when the kill was sent.
	wa := clitest.Start(t, "-join", url, "-worker-name", "a", "-workers", "1", "-summary=false")
	wa.WaitOutput("lease 1: span", 30*time.Second)
	res := wa.Kill()
	if res.Code == 0 {
		t.Fatal("worker a exited cleanly before SIGKILL landed")
	}
	killedMidSpan := !strings.Contains(res.Stdout+res.Stderr, "committed")

	// Worker B finishes the campaign, re-running A's abandoned span.
	wb := clitest.Start(t, "-join", url, "-worker-name", "b", "-workers", "1", "-summary=true")
	if res := wb.Wait(); res.Code != 0 {
		t.Fatalf("worker b: exit %d, stderr: %s", res.Code, res.Stderr)
	}
	coRes := co.Wait()
	if coRes.Code != 0 {
		t.Fatalf("coordinator: exit %d, stderr: %s", coRes.Code, coRes.Stderr)
	}
	var issued, expired, reissued, merged, dup int
	_, summary, _ := strings.Cut(coRes.Stderr, "leases: ")
	if _, err := fmt.Sscanf(summary, "%d issued, %d expired, %d reissued; spans: %d merged, %d duplicate",
		&issued, &expired, &reissued, &merged, &dup); err != nil {
		t.Fatalf("coordinator summary unreadable (%v):\n%s", err, coRes.Stderr)
	}
	switch {
	case killedMidSpan && expired == 0 && issued == merged:
		// Every issued lease was merged, worker a's first one included:
		// its commit landed after its last write and before the kill.
		t.Log("worker a's commit reached the coordinator before SIGKILL; byte-identity still asserted")
	case killedMidSpan:
		if expired != 1 {
			t.Fatalf("worker died mid-span but the coordinator summary shows %d expired leases, want 1:\n%s", expired, coRes.Stderr)
		}
		if reissued == 0 {
			t.Fatalf("worker died mid-span but the coordinator summary shows no re-issued lease:\n%s", coRes.Stderr)
		}
	default:
		t.Log("worker a committed its span before SIGKILL; byte-identity still asserted, re-issue covered by internal/inject tests")
	}

	got, err := os.ReadFile(distCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("distributed dataset (worker SIGKILLed mid-span) is not byte-identical to the single-process run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDistributeJoinExclusive: a process is either coordinator or
// worker, never both.
func TestDistributeJoinExclusive(t *testing.T) {
	res := clitest.Exec(t, "-distribute", "127.0.0.1:0", "-join", "http://x/v1/campaigns/y")
	if res.Code != 1 || !strings.Contains(res.Stderr, "mutually exclusive") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming the exclusion", res.Code, res.Stderr)
	}
}

// TestCLIRejectsUnknownKernel checks the error path of the real binary:
// validation failures surface the typed inject.ConfigError rendering —
// `config <Field>: <reason>` — which is the exact message lockstep-serve
// puts in its invalid_config JSON envelope, so the CLI and the server
// report the offending field identically.
func TestCLIRejectsUnknownKernel(t *testing.T) {
	res := clitest.Exec(t, "-o", filepath.Join(t.TempDir(), "x.csv"), "-kernels", "nosuch")
	if res.Code != 1 || !strings.Contains(res.Stderr, "lockstep-inject:") {
		t.Fatalf("unknown kernel: exit %d, stderr %q", res.Code, res.Stderr)
	}
	if want := `config Kernels: unknown kernel "nosuch"`; !strings.Contains(res.Stderr, want) {
		t.Fatalf("stderr %q does not carry the ConfigError rendering %q", res.Stderr, want)
	}
}

// TestCLIOutputInMissingDirectory: a dataset that cannot be written fails
// the command before any experiment runs — no progress line, and no
// coordinator serving leases under -distribute — and creates nothing,
// neither the output file nor a temporary one beside it.
func TestCLIOutputInMissingDirectory(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "missing", "campaign.csv")
	res := clitest.Exec(t, campaignArgs(out, "", 1)...)
	if res.Code == 0 || !strings.Contains(res.Stderr, "lockstep-inject:") {
		t.Fatalf("exit %d, stderr %q; want a failure naming the command", res.Code, res.Stderr)
	}
	if strings.Contains(res.Stderr, "experiments") {
		t.Fatalf("the campaign ran before the output check: stderr %q", res.Stderr)
	}

	// A coordinator that got past the check would serve leases until a
	// worker finished the campaign, so its run is bounded by the wait.
	co := clitest.Start(t, append(campaignArgs(out, "", 1), "-distribute", "127.0.0.1:0")...)
	co.WaitOutput("lockstep-inject:", 30*time.Second)
	res = co.Wait()
	if res.Code == 0 || strings.Contains(res.Stderr, "coordinator:") {
		t.Fatalf("-distribute: exit %d, stderr %q; want a failure before the coordinator starts", res.Code, res.Stderr)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed run left %d entries in %s (first %q)", len(entries), dir, entries[0].Name())
	}
}
