// Package clitest runs a command's real main() as a subprocess from its
// test package, so CLI smoke tests can assert exit status, stdout and
// stderr of the actual binary — flag parsing and os.Exit paths included.
//
// A cmd test package opts in by dispatching in TestMain:
//
//	func TestMain(m *testing.M) {
//		clitest.Dispatch(m)
//	}
//
// and then executes itself with CLI arguments:
//
//	res := clitest.Exec(t, "-o", out, "-kernels", "ttsprk")
//	if res.Code != 0 { ... }
//
// Exec re-runs the test binary with an environment marker set; Dispatch
// sees the marker in the child and calls the package's main() instead of
// the test suite.
package clitest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// EnvMarker is the environment variable that redirects a test binary
// into its package's main().
const EnvMarker = "LOCKSTEP_CLITEST_MAIN"

// mainFns is populated by the generated test binary via Register.
var mainFn func()

// Register installs the command's main func. Call it from the cmd test
// package's init (Dispatch panics without it).
func Register(main func()) { mainFn = main }

// Dispatch either runs the registered main() (in an Exec child) or the
// test suite. It never returns.
func Dispatch(m *testing.M) {
	if os.Getenv(EnvMarker) == "1" {
		if mainFn == nil {
			panic("clitest: Dispatch without Register")
		}
		mainFn()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Result is one subprocess invocation's outcome.
type Result struct {
	Stdout string
	Stderr string
	Code   int
}

// Exec re-runs the current test binary as the command under test with
// the given CLI arguments and returns its output and exit code.
func Exec(t *testing.T, args ...string) Result {
	t.Helper()
	return Start(t, args...).Wait()
}

// Proc is a command under test running in the background, so a test can
// observe or signal it mid-flight — e.g. SIGKILL a campaign between two
// checkpoint writes and assert that a resumed run completes the dataset,
// or SIGTERM a server and assert it drains gracefully.
type Proc struct {
	t              *testing.T
	cmd            *exec.Cmd
	stdout, stderr lockedBuffer
	// wrote holds a token after any output arrives, so WaitOutput wakes
	// on the write itself rather than on a poll.
	wrote  chan struct{}
	waited bool
	res    Result
}

// lockedBuffer is a bytes.Buffer safe to read while the subprocess's
// output-copying goroutine (inside os/exec) is still writing — tests
// wait on a live server's output for its listen address.
type lockedBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan<- struct{}
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, err := b.buf.Write(p)
	select {
	case b.wrote <- struct{}{}:
	default: // a wake-up is already pending
	}
	return n, err
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Start launches the command under test without waiting for it. Callers
// must eventually call Wait (directly or via Kill) to reap the process; a
// cleanup hook kills it if the test forgets.
func Start(t *testing.T, args ...string) *Proc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("clitest: cannot locate test binary: %v", err)
	}
	p := &Proc{t: t, cmd: exec.Command(exe, args...), wrote: make(chan struct{}, 1)}
	p.stdout.wrote, p.stderr.wrote = p.wrote, p.wrote
	p.cmd.Env = append(os.Environ(), EnvMarker+"=1")
	p.cmd.Stdout = &p.stdout
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("clitest: start %v: %v", args, err)
	}
	t.Cleanup(func() {
		if !p.waited {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	return p
}

// Signal delivers sig to the running subprocess without reaping it —
// e.g. syscall.SIGTERM to exercise a server's graceful-drain path; the
// test then Waits and asserts a clean exit.
func (p *Proc) Signal(sig os.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		p.t.Fatalf("clitest: signal %v: %v", sig, err)
	}
}

// WaitOutput waits until substr appears in the subprocess's
// stdout+stderr and returns everything captured so far. It wakes on each
// write, so a caller acting on the line (a Kill, say) lands while the
// subprocess is still at the point that wrote it, not a polling interval
// later. It fails the test if the subprocess exits, or the timeout
// elapses, without producing substr.
func (p *Proc) WaitOutput(substr string, timeout time.Duration) string {
	p.t.Helper()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		out := p.stdout.String() + p.stderr.String()
		if strings.Contains(out, substr) {
			return out
		}
		if p.cmd.ProcessState != nil {
			p.t.Fatalf("clitest: %q did not appear in output before the process exited:\n%s", substr, out)
		}
		select {
		case <-p.wrote:
		case <-timer.C:
			p.t.Fatalf("clitest: %q did not appear in output within %v:\n%s", substr, timeout, out)
		}
	}
}

// Kill SIGKILLs the subprocess — the hardest interruption a campaign can
// suffer: no signal handler runs, no buffer is flushed — and reaps it.
// The returned Result distinguishes a mid-flight kill (non-zero Code)
// from a process that had already exited cleanly before the signal
// landed (Code 0).
func (p *Proc) Kill() Result {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		p.t.Fatalf("clitest: kill: %v", err)
	}
	return p.Wait()
}

// Wait reaps the subprocess and returns its output and exit code. Safe to
// call more than once.
func (p *Proc) Wait() Result {
	p.t.Helper()
	if p.waited {
		return p.res
	}
	err := p.cmd.Wait()
	p.waited = true
	p.res = Result{Stdout: p.stdout.String(), Stderr: p.stderr.String()}
	var xerr *exec.ExitError
	switch {
	case err == nil:
		p.res.Code = 0
	case errors.As(err, &xerr):
		p.res.Code = xerr.ExitCode()
	default:
		p.t.Fatalf("clitest: wait %v: %v", p.cmd.Args, err)
	}
	return p.res
}
