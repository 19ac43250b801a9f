package atomicfile

import (
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
