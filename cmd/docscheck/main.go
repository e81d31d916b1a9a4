// Command docscheck is the documentation gate behind `make docs-check`.
// It fails (exit 1) when any Go package lacks a package comment, when
// any exported top-level identifier — function, method on an exported
// type, type, constant, or variable — lacks a doc comment, or when a
// Markdown file contains a relative link to a path that does not
// exist or to a #fragment that names no heading of the target
// Markdown file, or when a *.go or *.md file refers to a DESIGN.md
// section ("DESIGN.md §N") that has no "## N." heading, or when an
// exported function or method under an internal/ directory is
// referenced by no non-test Go file of the modules under the root.
// Findings print one per line as file:line: message, so editors and CI
// logs can jump straight to them.
//
// The doc-comment walk skips test files (Example functions double as
// documentation there); every walk skips generated output directories,
// and the link check skips absolute/external links. The section check
// reads every *.go file but only the Markdown docs reachable from
// README.md by relative links; an unlinked file such as the change log
// records history, not the current docs. The test-only-export walk
// type-checks every module under the root from source, so a method
// counts as used when its receiver implements an interface that
// declares it (fmt.Stringer, error, or one of the modules' own), not
// when its name merely matches.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	findings = append(findings, checkSectionRefs(root)...)
	findings = append(findings, checkTestOnly(root)...)
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

// ---- DESIGN.md section references ------------------------------------------

// sectionRef matches a prose reference to a numbered DESIGN.md section,
// "DESIGN.md §N" or "`DESIGN.md` §N" with N a number, also when a line
// break (and a Go comment marker) falls between the file name and the
// section sign.
var sectionRef = regexp.MustCompile("DESIGN\\.md`?\\s+(?://\\s*)?§(\\d+)")

// designSection matches a numbered top-level section heading of
// DESIGN.md and captures its number.
var designSection = regexp.MustCompile(`^## (\d+)\.`)

// currentDocs returns the Markdown files reachable from root/README.md
// by relative links, README.md included.
func currentDocs(root string) map[string]bool {
	docs := map[string]bool{}
	queue := []string{filepath.Join(root, "README.md")}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if docs[path] {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		docs[path] = true
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target, _, _ := strings.Cut(strings.Trim(m[1], "<>"), "#")
			if relativeLink(target) && strings.HasSuffix(target, ".md") {
				queue = append(queue, filepath.Join(filepath.Dir(path), target))
			}
		}
	}
	return docs
}

// checkSectionRefs reports every DESIGN.md §N reference in a *.go file
// under root, or in a Markdown file reachable from README.md, whose N
// has no "## N." heading in root/DESIGN.md. A missing DESIGN.md has no
// sections, so every reference to it is reported.
func checkSectionRefs(root string) []string {
	sections := map[string]bool{}
	design, _ := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	for _, line := range strings.Split(string(design), "\n") {
		if m := designSection.FindStringSubmatch(line); m != nil {
			sections[m[1]] = true
		}
	}

	docs := currentDocs(root)
	var findings []string
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
		if !strings.HasSuffix(path, ".go") && !docs[path] {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			findings = append(findings, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		text := string(data)
		for _, m := range sectionRef.FindAllStringSubmatchIndex(text, -1) {
			if n := text[m[2]:m[3]]; !sections[n] {
				line := strings.Count(text[:m[0]], "\n") + 1
				findings = append(findings,
					fmt.Sprintf("%s:%d: DESIGN.md §%s names no section", path, line, n))
			}
		}
		return nil
	})
	return findings
}

// ---- Test-only exports -----------------------------------------------------

// module is one go.mod under the root: its module path and directory.
type module struct{ path, dir string }

// loader type-checks the non-test files of the modules' packages from
// source, one *types.Package per import path, and imports everything
// else (the standard library) from compiled export data.
type loader struct {
	fset     *token.FileSet
	mods     []module // longest path first, so a nested module wins
	std      types.Importer
	pkgs     map[string]*types.Package
	info     *types.Info // shared by every module package
	files    map[string][]*ast.File
	findings []string
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	dir, ok := l.dirOf(path)
	if !ok {
		return l.std.Import(path)
	}
	l.pkgs[path] = nil
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, Error: func(err error) {
		l.findings = append(l.findings, fmt.Sprintf("%s: typecheck: %v", dir, err))
	}}
	pkg, _ := conf.Check(path, l.fset, files, l.info)
	l.pkgs[path] = pkg
	l.files[path] = files
	return pkg, nil
}

// dirOf maps an import path inside one of the modules to its directory.
func (l *loader) dirOf(path string) (string, bool) {
	for _, m := range l.mods {
		if path == m.path {
			return m.dir, true
		}
		if rest, ok := strings.CutPrefix(path, m.path+"/"); ok {
			return filepath.Join(m.dir, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

// pathOf maps a directory inside one of the modules to its import path.
func (l *loader) pathOf(dir string) (string, bool) {
	for _, m := range l.mods {
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			continue
		}
		if rel == "." {
			return m.path, true
		}
		return m.path + "/" + filepath.ToSlash(rel), true
	}
	return "", false
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// checkTestOnly type-checks every package of the modules under root
// (each go.mod found by the walk) and reports each exported function
// or method declared in a package under an internal/ directory that no
// non-test file of those modules references. A method is exempt when
// its receiver type, or a pointer to it, implements an interface that
// declares it: error, or a named interface of a module package or of a
// standard-library package they import, directly or not.
func checkTestOnly(root string) []string {
	l := &loader{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		files: map[string][]*ast.File{},
	}
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
		if d.Name() == "go.mod" {
			if mp := modulePath(path); mp != "" {
				l.mods = append(l.mods, module{mp, filepath.Dir(path)})
			}
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	sort.Slice(l.mods, func(i, j int) bool { return len(l.mods[i].dir) > len(l.mods[j].dir) })
	for _, dir := range dirs {
		if path, ok := l.pathOf(dir); ok {
			if _, err := l.Import(path); err != nil {
				l.findings = append(l.findings, fmt.Sprintf("%s: load: %v", dir, err))
			}
		}
	}
	if len(l.findings) > 0 {
		return l.findings
	}

	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaces := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				if named, ok := tn.Type().(*types.Named); ok {
					ifaces = append(ifaces, named)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			// Export data lists a dependency with only the objects the
			// importer uses; importing it by path completes its scope.
			if full, err := l.Import(imp.Path()); err == nil {
				collect(full)
			}
		}
	}
	for _, pkg := range l.pkgs {
		collect(pkg)
	}
	// A method satisfies an interface when a named type of a module
	// package, by declaring it or by embedding a type that does,
	// implements an interface that declares it.
	satisfies := map[types.Object]bool{}
	for _, pkg := range l.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				for _, named := range ifaces {
					iface := named.Underlying().(*types.Interface)
					if iface.NumMethods() == 0 || !types.Implements(t, iface) {
						continue
					}
					for i := 0; i < iface.NumMethods(); i++ {
						obj, _, _ := types.LookupFieldOrMethod(t, false, pkg, iface.Method(i).Name())
						if fn, ok := obj.(*types.Func); ok {
							satisfies[fn.Origin()] = true
						}
					}
				}
			}
		}
	}

	var findings []string
	for path, files := range l.files {
		if !underInternal(path) {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || !d.Name.IsExported() {
					continue
				}
				fn, ok := l.info.Defs[d.Name].(*types.Func)
				if !ok || used[fn] || satisfies[fn] {
					continue
				}
				what := "function " + fn.Pkg().Name() + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					what = "method " + fn.Pkg().Name() + "." + types.TypeString(t, func(*types.Package) string { return "" }) + "." + fn.Name()
				}
				p := l.fset.Position(d.Pos())
				findings = append(findings,
					fmt.Sprintf("%s:%d: exported %s has no non-test reference", p.Filename, p.Line, what))
			}
		}
	}
	return findings
}

// underInternal reports whether an import path has an internal element.
func underInternal(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}
