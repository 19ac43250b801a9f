// Package atomicfile replaces files so that a concurrent reader, or a
// restart after a crash at any instant, sees either the complete old
// contents or the complete new contents — never a torn file.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write replaces path with data: it writes a temporary file in path's
// directory, fsyncs and closes it, and renames it over path.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
