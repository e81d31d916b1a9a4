package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckMarkdownReportsDeadFragments checks that a link whose
// #fragment names no heading of its target is reported, while
// fragments built by GitHub's slug rule (punctuation dropped, each
// space a '-', -N suffixes for repeats) resolve.
func TestCheckMarkdownReportsDeadFragments(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.md", "# B\n\n## 5. Fault model & degraded mode\n\n## Dup\n\n## Dup ##\n\n"+
		"```\n# not a heading\n```\n")
	write("a.md", "# A `code` title\n\n"+
		"[ok](b.md#5-fault-model--degraded-mode)\n"+
		"[dup](b.md#dup-1)\n"+
		"[self](#a-code-title)\n"+
		"[plain](b.md)\n"+
		"[missing](b.md#missing)\n"+
		"[fenced](b.md#not-a-heading)\n"+
		"[self-missing](#nope)\n")

	a := filepath.Join(dir, "a.md")
	want := []string{
		a + ":7: dead anchor b.md#missing",
		a + ":8: dead anchor b.md#not-a-heading",
		a + ":9: dead anchor #nope",
	}
	if got := checkMarkdown(dir); !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got %q\nwant %q", got, want)
	}
}
