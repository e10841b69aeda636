package odin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// makeTarget matches a rule line ("name: deps"); recipe lines start with
// a tab and belong to the last rule seen.
var makeTarget = regexp.MustCompile(`^([A-Za-z0-9_-]+):`)

// runGate is one `go test -run PATTERN PKG...` invocation in a gate target.
type runGate struct {
	target, pattern string
	pkgs            []string
}

// makeRunGates extracts every -run invocation from the *smoke and check
// targets of a Makefile. Continuation lines are joined first; `$$` is
// make's escape for a literal `$`.
func makeRunGates(makefile string) []runGate {
	var gates []runGate
	target := ""
	text := strings.ReplaceAll(makefile, "\\\n", " ")
	for _, line := range strings.Split(text, "\n") {
		if m := makeTarget.FindStringSubmatch(line); m != nil {
			target = m[1]
			continue
		}
		if !strings.HasPrefix(line, "\t") || !(strings.HasSuffix(target, "smoke") || target == "check") {
			continue
		}
		fields := shellFields(strings.ReplaceAll(line, "$$", "$"))
		for i, f := range fields {
			var pattern string
			switch {
			case f == "-run" && i+1 < len(fields):
				pattern = fields[i+1]
			case strings.HasPrefix(f, "-run="):
				pattern = strings.TrimPrefix(f, "-run=")
			default:
				continue
			}
			g := runGate{target: target, pattern: pattern}
			for _, p := range fields[i+1:] {
				if p == "." || strings.HasPrefix(p, "./") {
					g.pkgs = append(g.pkgs, p)
				}
			}
			gates = append(gates, g)
		}
	}
	return gates
}

// shellFields splits a recipe line on blanks, honouring single quotes.
func shellFields(line string) []string {
	var out []string
	var cur strings.Builder
	quoted, inField := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inField = !quoted, true
		case !quoted && (r == ' ' || r == '\t'):
			if inField {
				out = append(out, cur.String())
				cur.Reset()
				inField = false
			}
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		out = append(out, cur.String())
	}
	return out
}

// testFuncs lists the top-level Test functions in the _test.go files of
// the package dir, or of every package below it for a `/...` pattern
// (nested modules and testdata excluded, as `go test` does).
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(pkg, "/...")
	var dirs []string
	if !recursive {
		dirs = []string{root}
	} else if err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" ||
				strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// orphanAlternatives returns each `|` alternative of a gate's -run pattern
// that matches no Test function in the gate's packages. Only the top-level
// element of a subtest pattern ("TestX/sub") is checked, and `^$` (run
// nothing, the bench-only idiom) is exempt.
func orphanAlternatives(t *testing.T, g runGate) []string {
	t.Helper()
	if g.pattern == "^$" {
		return nil
	}
	var names []string
	for _, pkg := range g.pkgs {
		names = append(names, testFuncs(t, pkg)...)
	}
	var orphans []string
	for _, alt := range strings.Split(g.pattern, "|") {
		top, _, _ := strings.Cut(alt, "/")
		re, err := regexp.Compile(top)
		if err != nil {
			t.Fatalf("%s: -run %q: %v", g.target, g.pattern, err)
		}
		if !slices.ContainsFunc(names, re.MatchString) {
			orphans = append(orphans, alt)
		}
	}
	return orphans
}

// TestMakefileRunPatternsMatch guards the gates themselves: every -run
// alternative in a *smoke or check target must select at least one test,
// because `go test -run` passes silently when an alternative stops
// matching (a renamed test quietly drops out of its gate).
func TestMakefileRunPatternsMatch(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	gates := makeRunGates(string(raw))
	if len(gates) < 10 {
		t.Fatalf("found only %d -run gates in the Makefile; the parser lost track of the targets", len(gates))
	}
	for _, g := range gates {
		if len(g.pkgs) == 0 {
			t.Errorf("%s: -run %q names no package", g.target, g.pattern)
			continue
		}
		for _, alt := range orphanAlternatives(t, g) {
			t.Errorf("%s: -run alternative %q in %q matches no Test function in %v",
				g.target, alt, g.pattern, g.pkgs)
		}
	}

	// The guard must catch an orphan: the same parse over a rule whose
	// pattern names a test that does not exist.
	bogus := makeRunGates("fakesmoke:\n\t$(GO) test -run 'TestMakefileRunPatternsMatch|TestNoSuchGate' .\n")
	if len(bogus) != 1 {
		t.Fatalf("synthetic rule parsed into %d gates, want 1", len(bogus))
	}
	if got := orphanAlternatives(t, bogus[0]); len(got) != 1 || got[0] != "TestNoSuchGate" {
		t.Fatalf("synthetic orphan reported as %v, want [TestNoSuchGate]", got)
	}
}
