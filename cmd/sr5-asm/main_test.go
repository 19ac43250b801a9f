package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockstep/internal/clitest"
)

func init() { clitest.Register(main) }

func TestMain(m *testing.M) { clitest.Dispatch(m) }

const prog = "        li   r1, 5\n        add  r2, r1, r1\n        halt\n"

// writeSource writes prog to a source file in dir.
func writeSource(t *testing.T, dir string) string {
	t.Helper()
	src := filepath.Join(dir, "p.s")
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	return src
}

// TestCLIFormats runs the real binary once per format and checks the
// bytes each writes, to a file and, for hex, to stdout.
func TestCLIFormats(t *testing.T) {
	dir := t.TempDir()
	src := writeSource(t, dir)
	for format, want := range map[string]string{
		"hex": "3c400005\n04844000\na4000000\n",
		"bin": "\x05\x00\x40\x3c\x00\x40\x84\x04\x00\x00\x00\xa4",
		"list": "; origin 0x0, entry 0x0, 3 words\n" +
			"00000000: 3c400005  addi r1, r0, 5\n" +
			"00000004: 04844000  add r2, r1, r1\n" +
			"00000008: a4000000  halt\n",
	} {
		out := filepath.Join(dir, format+".out")
		if res := clitest.Exec(t, "-o", out, "-format", format, src); res.Code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", format, res.Code, res.Stderr)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s: wrote %q, want %q", format, got, want)
		}
	}
	res := clitest.Exec(t, "-format", "hex", src)
	if res.Code != 0 || res.Stdout != "3c400005\n04844000\na4000000\n" {
		t.Errorf("hex to stdout: exit %d, stdout %q", res.Code, res.Stdout)
	}
}

// TestCLIFailureKeepsOutput checks that a run that fails leaves an
// existing output file byte for byte as it was: an unknown format (exit
// 2) and a source that does not assemble (exit 1).
func TestCLIFailureKeepsOutput(t *testing.T) {
	dir := t.TempDir()
	src := writeSource(t, dir)
	bad := filepath.Join(dir, "bad.s")
	if err := os.WriteFile(bad, []byte("        frob r1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.txt")
	const old = "previous contents\n"
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-o", out, "-format", "bogus", src}, 2, `unknown format "bogus"`},
		{[]string{"-o", out, "-format", "hex", bad}, 1, "sr5-asm:"},
	} {
		if err := os.WriteFile(out, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		res := clitest.Exec(t, tc.args...)
		if res.Code != tc.code || !strings.Contains(res.Stderr, tc.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", tc.args, res.Code, res.Stderr, tc.code, tc.msg)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != old {
			t.Errorf("%v: output became %q, want it untouched", tc.args, got)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("%d files left in the output directory, want 3 (no temporary file)", len(entries))
	}
}
