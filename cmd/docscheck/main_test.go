package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

// TestCheckSectionRefsReportsMissingSections checks that a DESIGN.md
// §N reference, plain, backquoted or broken across a Go comment line,
// is reported when DESIGN.md has no "## N." heading, and that a
// Markdown file README.md does not reach by links is not checked.
func TestCheckSectionRefsReportsMissingSections(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The references are assembled from sec so that this file holds
	// none the real docs-check run would report.
	const sec = "§"
	write("README.md", "See [the notes](a.md).\n")
	write("DESIGN.md", "# Design\n\n## 1. One\n\n### 2. Not a section\n\n## 3. Three\n")
	write("a.md", "See DESIGN.md "+sec+"1 and `DESIGN.md` "+sec+"3.\n"+
		"Also `DESIGN.md` "+sec+"2 and DESIGN.md "+sec+"12.\n")
	write("x.go", "// Package x is described in DESIGN.md\n// "+sec+"3, not DESIGN.md\n// "+sec+"4.\npackage x\n")
	write("CHANGES.md", "Removed DESIGN.md "+sec+"9.\n")

	a, x := filepath.Join(dir, "a.md"), filepath.Join(dir, "x.go")
	want := []string{
		a + ":2: DESIGN.md " + sec + "2 names no section",
		a + ":2: DESIGN.md " + sec + "12 names no section",
		x + ":2: DESIGN.md " + sec + "4 names no section",
	}
	if got := checkSectionRefs(dir); !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got %q\nwant %q", got, want)
	}
}

// TestCheckTestOnlyReportsTestOnlyExports runs the test-only-export
// walk over a fixture module: an exported function that only a test
// calls is reported, a method that satisfies fmt.Stringer is not, a
// function that a cmd package calls is not, and a method that shares
// io.Closer's name but not its signature is reported.
func TestCheckTestOnlyReportsTestOnlyExports(t *testing.T) {
	root := filepath.Join("testdata", "testonly")
	lib := filepath.Join(root, "internal", "lib", "lib.go")
	want := []string{
		lib + ":10: exported function lib.OnlyTested has no non-test reference",
		lib + ":19: exported method lib.Name.Close has no non-test reference",
	}
	got := checkTestOnly(root)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got %q\nwant %q", got, want)
	}
}
