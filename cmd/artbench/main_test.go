package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the test into dir for its duration.
func chdir(t *testing.T, dir string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(prev) })
}

// Outside the repository root the source stamp cannot be taken: the
// disk cache falls back to memory-only and says so, once.
func TestCacheDirWarnsOutsideRepoRoot(t *testing.T) {
	chdir(t, t.TempDir())
	var warn strings.Builder
	if dir := cacheDir(true, "bench_results", &warn); dir != "" {
		t.Fatalf("cacheDir = %q, want \"\" without a source tree", dir)
	}
	msg := warn.String()
	if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "run from the repository root") {
		t.Errorf("warning = %q, want one line naming the repository root", msg)
	}
}

// At the repository root the stamp resolves silently; a disabled disk
// layer is silent too.
func TestCacheDirAtRepoRoot(t *testing.T) {
	chdir(t, filepath.Join("..", ".."))
	var warn strings.Builder
	dir := cacheDir(true, "bench_results", &warn)
	if !strings.HasPrefix(dir, filepath.Join("bench_results", "cache")+string(filepath.Separator)) {
		t.Errorf("cacheDir = %q, want bench_results/cache/<stamp>", dir)
	}
	if dir := cacheDir(false, "bench_results", &warn); dir != "" {
		t.Errorf("cacheDir with the disk layer off = %q, want \"\"", dir)
	}
	if warn.Len() != 0 {
		t.Errorf("unexpected warning %q", warn.String())
	}
}
