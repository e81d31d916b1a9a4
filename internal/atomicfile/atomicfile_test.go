package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReplacesAndCleansUp checks that WriteFile replaces an
// existing file with the given permissions and leaves no temporary file
// behind, and that a failed write leaves nothing either.
func TestWriteFileReplacesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "f")
	if err := os.WriteFile(name, []byte("old content"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(name, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(name); err != nil || string(data) != "new" {
		t.Fatalf("content %q, err %v; want \"new\"", data, err)
	}
	if fi, err := os.Stat(name); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("stat %v, err %v; want mode 0644", fi, err)
	}
	// Renaming over a directory fails after the temporary file exists.
	if err := os.Mkdir(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "d"), []byte("x"), 0o644); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("directory holds %d entries, want 2 (f and d): %v", len(entries), entries)
	}
}
