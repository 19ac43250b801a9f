package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplaces: Write creates and then replaces the target with the
// exact bytes given and leaves no temporary file behind; a write into a
// missing directory fails without creating the target.
func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, data := range []string{"first\n", "second, longer contents\n", ""} {
		if err := Write(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != data {
			t.Fatalf("read back %q, wrote %q", got, data)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("directory holds %d entries after a write, want only the target", len(entries))
		}
	}
	missing := filepath.Join(dir, "no-such-dir", "f")
	if err := Write(missing, []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("failed write left %s behind (stat err %v)", missing, err)
	}
}

// TestWriteReportsDirSyncFailure: Write fsyncs the target's directory
// after the rename and returns that sync's error, so a caller never
// treats a replacement a power loss could still forget as done. The
// rename has happened by then: the new contents are in place.
func TestWriteReportsDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	var synced []string
	orig := syncDir
	defer func() { syncDir = orig }()
	syncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	if err := Write(path, []byte("one\n")); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("synced directories %q, want [%q]", synced, dir)
	}

	failure := errors.New("injected directory sync failure")
	syncDir = func(string) error { return failure }
	if err := Write(path, []byte("two\n")); !errors.Is(err, failure) {
		t.Fatalf("Write returned %v, want the directory sync error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "two\n" {
		t.Fatalf("after a failed directory sync the target holds %q (err %v), want the renamed contents", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed sync, want only the target", len(entries))
	}
}

// TestCheckDir: CheckDir accepts a writable directory and leaves it
// empty, and refuses a missing directory and a path under a regular file
// with the cause Write gives them.
func TestCheckDir(t *testing.T) {
	dir := t.TempDir()
	if err := CheckDir(filepath.Join(dir, "out.csv")); err != nil {
		t.Fatalf("writable directory refused: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("CheckDir left %d entries behind", len(entries))
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing", "out.csv"), filepath.Join(file, "out.csv")} {
		err := CheckDir(path)
		if err == nil {
			t.Fatalf("%s accepted", path)
		}
		if werr := Write(path, []byte("x")); !errors.Is(werr, errors.Unwrap(err)) {
			t.Fatalf("%s: CheckDir says %v, Write says %v", path, err, werr)
		}
	}
}

// TestWriteModeMatchesCreate: a file Write makes gets the mode os.Create
// gives a new file in the same directory, so the process's umask decides
// who may read it, as it did before writes went through a temporary
// file.
func TestWriteModeMatchesCreate(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "created"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	want, err := os.Stat(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "written")
	if err := Write(path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Fatalf("Write made mode %v, os.Create %v", got.Mode(), want.Mode())
	}
}
