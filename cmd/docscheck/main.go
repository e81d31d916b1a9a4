// Command docscheck is the documentation gate behind `make docs-check`.
// It fails (exit 1) when any Go package lacks a package comment, when
// any exported top-level identifier — function, method on an exported
// type, type, constant, or variable — lacks a doc comment, or when a
// Markdown file contains a relative link to a path that does not
// exist or to a #fragment that names no heading of the target
// Markdown file. Findings print one per line as file:line: message,
// so editors and CI logs can jump straight to them.
//
// The walk skips test files (Example functions double as documentation
// there), generated output directories, and absolute/external links.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var findings []string
	findings = append(findings, checkGo(root)...)
	findings = append(findings, checkMarkdown(root)...)
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("docscheck: OK")
}

// skipDir reports whether a directory never holds checked sources:
// VCS internals and generated benchmark output.
func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") && name != "." ||
		name == "bench_results" || name == "testdata"
}

// ---- Go doc comments -------------------------------------------------------

// checkGo parses every package under root and reports missing package
// comments and undocumented exported identifiers.
func checkGo(root string) []string {
	var dirs []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})

	var findings []string
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			findings = append(findings, fmt.Sprintf("%s: parse: %v", dir, err))
			continue
		}
		for _, pkg := range pkgs {
			findings = append(findings, checkPackage(fset, dir, pkg)...)
		}
	}
	return findings
}

// checkPackage reports doc problems in one parsed package.
func checkPackage(fset *token.FileSet, dir string, pkg *ast.Package) []string {
	var findings []string

	pkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil {
			pkgDoc = true
		}
	}
	if !pkgDoc {
		findings = append(findings,
			fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
	}

	// Exported types seen in this package, so methods on unexported
	// types are not flagged.
	exportedTypes := map[string]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				if ts.Name.IsExported() {
					exportedTypes[ts.Name.Name] = true
				}
			}
		}
	}

	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		findings = append(findings,
			fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				if recv := receiverType(d); recv != "" {
					if exportedTypes[recv] {
						report(d.Pos(), "exported method %s.%s has no doc comment", recv, d.Name.Name)
					}
					continue
				}
				report(d.Pos(), "exported function %s has no doc comment", d.Name.Name)
			case *ast.GenDecl:
				findings = append(findings, checkGenDecl(fset, d, report)...)
			}
		}
	}
	return findings
}

// receiverType returns the base type name of a method receiver, or ""
// for plain functions.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// checkGenDecl reports undocumented exported specs in a type/const/var
// declaration. A doc comment on the grouped declaration covers every
// spec inside it (the idiomatic form for iota blocks); otherwise each
// exported spec needs its own doc or trailing line comment.
func checkGenDecl(fset *token.FileSet, d *ast.GenDecl, report func(token.Pos, string, ...any)) []string {
	if d.Tok == token.IMPORT || d.Doc != nil {
		return nil
	}
	for _, s := range d.Specs {
		switch sp := s.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() && sp.Doc == nil && sp.Comment == nil {
				report(sp.Pos(), "exported type %s has no doc comment", sp.Name.Name)
			}
		case *ast.ValueSpec:
			if sp.Doc != nil || sp.Comment != nil {
				continue
			}
			for _, name := range sp.Names {
				if name.IsExported() {
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					report(name.Pos(), "exported %s %s has no doc comment", kind, name.Name)
				}
			}
		}
	}
	return nil
}

// ---- Markdown links --------------------------------------------------------

// mdLink matches inline links and images: [text](target). Angle-
// bracketed targets and titles are handled by trimming below.
var mdLink = regexp.MustCompile(`\]\(([^()\s]+?)(?:\s+"[^"]*")?\)`)

// checkMarkdown reports relative links in *.md files whose targets do
// not exist on disk, or whose #fragment names no heading of a Markdown
// target (a bare #fragment targets the linking file itself).
func checkMarkdown(root string) []string {
	var findings []string
	anchors := map[string]map[string]bool{} // per target file, parsed once
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			findings = append(findings, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := strings.Trim(m[1], "<>")
				if !relativeLink(target) {
					continue
				}
				target, frag, _ := strings.Cut(target, "#")
				resolved := path
				if target != "" {
					resolved = filepath.Join(filepath.Dir(path), target)
					if _, err := os.Stat(resolved); err != nil {
						findings = append(findings,
							fmt.Sprintf("%s:%d: dead link %s", path, i+1, m[1]))
						continue
					}
				}
				if frag == "" || !strings.HasSuffix(resolved, ".md") {
					continue
				}
				if anchors[resolved] == nil {
					anchors[resolved] = headingAnchors(resolved)
				}
				if !anchors[resolved][frag] {
					findings = append(findings,
						fmt.Sprintf("%s:%d: dead anchor %s", path, i+1, m[1]))
				}
			}
		}
		return nil
	})
	return findings
}

// relativeLink reports whether a link target is a repo-relative path
// or a same-file #fragment (as opposed to an external URL or an
// absolute path).
func relativeLink(target string) bool {
	return !strings.Contains(target, "://") &&
		!strings.HasPrefix(target, "mailto:") &&
		!strings.HasPrefix(target, "/")
}

// atxHeading matches a Markdown ATX heading and captures its text
// without the optional closing #s.
var atxHeading = regexp.MustCompile(`^#{1,6}\s+(.*?)(?:\s+#+)?\s*$`)

// headingAnchors returns the set of anchors GitHub generates for the
// headings of Markdown file path, skipping fenced code blocks. A
// repeated slug gets -1, -2, ... suffixes, as on GitHub. An unreadable
// file yields an empty set, so every fragment into it is reported.
func headingAnchors(path string) map[string]bool {
	set := map[string]bool{}
	data, err := os.ReadFile(path)
	if err != nil {
		return set
	}
	seen := map[string]int{}
	fenced := false
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			fenced = !fenced
			continue
		}
		m := atxHeading.FindStringSubmatch(line)
		if fenced || m == nil {
			continue
		}
		slug := headingSlug(m[1])
		if n := seen[slug]; n > 0 {
			set[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			set[slug] = true
		}
		seen[slug]++
	}
	return set
}

// headingSlug applies GitHub's anchor rule to heading text: lowercase,
// drop punctuation other than '-' and '_', and turn each space into '-'.
func headingSlug(text string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(text) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) || unicode.IsMark(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}
