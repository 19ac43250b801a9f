// Package atomicfile replaces files so that a concurrent reader, or a
// restart after a crash at any instant, sees either the complete old
// contents or the complete new contents — never a torn file — and so
// that a replacement Write reported done survives a power loss.
package atomicfile

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// Write replaces path with data: it writes a temporary file in path's
// directory, fsyncs and closes it, renames it over path, and fsyncs the
// directory, without which a power loss could forget the rename. If only
// that last sync fails, the new contents are in place but Write returns
// the error: they may not survive a power loss.
func Write(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := createTemp(dir)
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// CheckDir fails, with the error Write would return, when Write could
// not create its temporary file beside path: the directory is missing,
// not a directory, or not writable. A command calls it before the work
// whose result it will Write, so a bad output path fails in
// milliseconds, not after the work. It leaves nothing behind.
func CheckDir(path string) error {
	tmp, err := createTemp(filepath.Dir(path))
	if err != nil {
		return err
	}
	tmp.Close()
	return os.Remove(tmp.Name())
}

// createTemp creates a new file in dir under a random name, retrying on
// a name that exists. It asks for mode 0666, so the file gets the mode
// os.Create would give it under the process's umask; os.CreateTemp asks
// for 0600, which would make every replaced file private.
func createTemp(dir string) (*os.File, error) {
	for try := 0; ; try++ {
		name := filepath.Join(dir, ".tmp-"+strconv.FormatUint(rand.Uint64(), 36))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if errors.Is(err, os.ErrExist) && try < 10000 {
			continue
		}
		return f, err
	}
}

// syncDir fsyncs directory dir, making the renames inside it durable.
// Tests replace it to make the sync fail.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
