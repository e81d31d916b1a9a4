// Package atomicfile replaces a file's content so that a reader, or a
// crash, finds either the old content or the new, never a truncated or
// partly written file. The Q-table checkpoints, the run cache's disk
// layer and artbench's result files are written through it.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to name with permissions perm, as os.WriteFile
// does, but never truncates name in place: it writes a temporary file in
// name's directory, syncs and closes it, and renames it over name. On
// any error the temporary file is removed and name is left as it was.
func WriteFile(name string, data []byte, perm os.FileMode) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(name), "."+filepath.Base(name)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close() // a second Close after a failed one is harmless
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Chmod(perm); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), name)
}
