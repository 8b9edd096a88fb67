package ffccd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// referenceDocs are the documents whose code references must resolve; the
// repository's skill notes (SKILL.md files under a hidden directory) are added
// to them.
var referenceDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// docRefAllowed lists the references the documents quote as history — code
// that is gone and is named only to say so — each with the reason it stays.
var docRefAllowed = map[string]string{
	"BENCH_3.json": "a host-cost record deleted once go run ./bench replaced it; DESIGN quotes its numbers",
	"BENCH_4.json": "a host-cost record deleted once go run ./bench replaced it; DESIGN quotes its numbers",
	"BENCH_7.json": "a host-cost record deleted once go run ./bench replaced it; DESIGN quotes its numbers",
}

var (
	// docSpan is one inline code span, which may wrap; fenced blocks are cut
	// out first.
	docSpan   = regexp.MustCompile("`([^`]+)`")
	docFence  = regexp.MustCompile("(?s)```.*?```")
	docPkgRef = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	docPath   = regexp.MustCompile(`^[\w./-]+\.(go|md|json|golden|sh)(:\d+)?$`)
	docMake   = regexp.MustCompile(`^make ([\w -]+)$`)
)

// TestDocReferencesResolve fails on a code reference in referenceDocs that
// names nothing in the tree: a backticked exported pkg.Name, where pkg is the
// name of a package directory, that no non-test file of that package
// declares (as a top-level name or a method); a backticked path ending .go,
// .md, .json, .golden or .sh (with an optional :line) that exists neither from
// the root nor from any package directory or its testdata; and a backticked
// `make X` whose X is no Makefile target. An allowed reference that resolves
// again, or that no document names any more, fails too.
func TestDocReferencesResolve(t *testing.T) {
	decls := map[string]map[string]bool{} // package directory name → its top-level names and method names
	var pkgDirs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		name := filepath.Base(dir)
		if dir == "." {
			name = "ffccd"
		}
		if decls[name] == nil {
			decls[name] = map[string]bool{}
			pkgDirs = append(pkgDirs, dir)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[name][d.Name.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls[name][s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decls[name][n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := makeTargets(t)

	resolves := func(ref string) bool {
		if m := docMake.FindStringSubmatch(ref); m != nil {
			for _, target := range strings.Fields(m[1]) {
				if !targets[target] {
					return false
				}
			}
			return true
		}
		if m := docPath.FindStringSubmatch(ref); m != nil {
			path := strings.TrimSuffix(ref, m[2])
			for _, dir := range append([]string{"."}, pkgDirs...) {
				for _, d := range []string{dir, filepath.Join(dir, "testdata")} {
					if _, err := os.Stat(filepath.Join(d, path)); err == nil {
						return true
					}
				}
			}
			return false
		}
		pkg, name, _ := strings.Cut(ref, ".")
		return decls[pkg][name]
	}

	skills, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil || len(skills) == 0 {
		t.Fatalf("no skill notes found (%v)", err)
	}
	named := map[string]bool{}
	for _, doc := range append(referenceDocs, skills...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		body := docFence.ReplaceAllStringFunc(string(text), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		for _, span := range docSpan.FindAllStringSubmatchIndex(body, -1) {
			code := strings.Join(strings.Fields(body[span[2]:span[3]]), " ")
			var refs []string
			if docMake.MatchString(code) || docPath.MatchString(code) {
				refs = append(refs, code)
			} else {
				for _, m := range docPkgRef.FindAllStringSubmatch(code, -1) {
					if decls[m[1]] != nil {
						refs = append(refs, m[1]+"."+m[2])
					}
				}
			}
			for _, ref := range refs {
				named[ref] = true
				if _, ok := docRefAllowed[ref]; !ok && !resolves(ref) {
					t.Errorf("%s:%d: `%s` names nothing in the tree", doc, 1+strings.Count(body[:span[0]], "\n"), ref)
				}
			}
		}
	}
	for ref, why := range docRefAllowed {
		if !named[ref] || resolves(ref) {
			t.Errorf("allowed %s (%s) is no longer quoted or resolves again; drop it from docRefAllowed", ref, why)
		}
	}
}

// makeTargets returns the Makefile's targets.
func makeTargets(t *testing.T) map[string]bool {
	text, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+)[ \t]*:([^=]|$)`).FindAllStringSubmatch(string(text), -1) {
		targets[m[1]] = true
	}
	return targets
}
