package ffccd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	docPkgRef = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	docPath   = regexp.MustCompile(`^[\w./-]+\.(go|md|json|golden|txt|sh)(:\d+)?$`)
	docMake   = regexp.MustCompile(`^make ([\w -]+)$`)
	// docCmd is a command of cmd/ and the arguments after it, and docFlag
	// one flag among them, bracketed when optional.
	docCmd  = regexp.MustCompile(`\b(ffccd-(?:bench|crashtest|inspect))\b(.*)`)
	docFlag = regexp.MustCompile(`(?:^|\s)\[?--?([A-Za-z][\w-]*)`)
	// docTest is a test, fuzz target or benchmark named outright, a trailing
	// * naming every one it prefixes; docTestFlag a go test -run, -bench or
	// -fuzz pattern, quoted or not.
	docTest     = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z_]\w*\*?`)
	docTestFlag = regexp.MustCompile(`(?:^|\s)-(run|bench|fuzz)[ =]('[^']*'|\S+)`)
	// flagDecl names the flag.FlagSet methods that declare a flag.
	flagDecl = regexp.MustCompile(`^((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|BoolFunc|Func|TextVar|Var)$`)
)

// TestDocReferencesResolve fails on a code reference in referenceDocs that
// names nothing in the tree: a backticked exported pkg.Name, where pkg is the
// name of a package directory, that no non-test file of that package
// declares (as a top-level name or a method); a backticked pkg.Type.Member
// chain whose Member is no field or method of that type (nor promoted from a
// type it embeds); a backticked path ending .go,
// .md, .json, .golden, .txt or .sh (with an optional :line) that exists neither from
// the root nor from any package directory or its testdata; a backticked
// `make X` whose X is no Makefile target; a backticked `ffccd-bench -x`
// (or ffccd-crashtest, ffccd-inspect) whose -x that command's main.go does not
// declare; a backticked TestX, FuzzX or BenchmarkX (or TestX*) that no
// _test.go file declares as a function; and a backticked go test -run, -bench
// or -fuzz pattern one of whose |-alternatives matches no such function. An
// allowed reference that resolves again, or that no document names any more,
// fails too.
func TestDocReferencesResolve(t *testing.T) {
	decls := map[string]map[string]bool{}   // package directory name → its top-level names and method names
	members := map[string]map[string]bool{} // "pkg.Type" → its fields and methods
	embeds := map[string][]string{}         // "pkg.Type" → the "pkg.Type" of each type it embeds
	member := func(typ, m string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][m] = true
	}
	var pkgDirs []string
	var tests []string // every Test, Fuzz and Benchmark function of a _test.go file
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && docTest.MatchString(fn.Name.Name) {
					tests = append(tests, fn.Name.Name)
				}
			}
			return nil
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
				if d.Recv != nil {
					member(typeKey(name, d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls[name][s.Name.Name] = true
						typ := name + "." + s.Name.Name
						member(typ, "") // a type, even with no members
						fields := &ast.FieldList{}
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields = t.Fields
						case *ast.InterfaceType:
							fields = t.Methods
						}
						for _, f := range fields.List {
							for _, n := range f.Names {
								member(typ, n.Name)
							}
							if len(f.Names) == 0 {
								// An embedded type is a field under its own
								// name, and its members are promoted.
								e := typeKey(name, f.Type)
								member(typ, e[strings.LastIndex(e, ".")+1:])
								embeds[typ] = append(embeds[typ], e)
							}
						}
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
	flags := cmdFlags(t)

	// hasMember reports whether typ has m as a field or method, its own or
	// promoted from a type it embeds.
	var hasMember func(typ, m string, depth int) bool
	hasMember = func(typ, m string, depth int) bool {
		if members[typ][m] {
			return true
		}
		return depth < 8 && slices.ContainsFunc(embeds[typ], func(e string) bool {
			return hasMember(e, m, depth+1)
		})
	}

	// testNamed reports whether ref names a test function, or prefixes one
	// when it ends in *.
	testNamed := func(ref string) bool {
		prefix, wild := strings.CutSuffix(ref, "*")
		return slices.ContainsFunc(tests, func(name string) bool {
			return name == ref || wild && strings.HasPrefix(name, prefix)
		})
	}
	// testMatched reports whether a go test pattern matches a test function;
	// one that does not compile matches nothing.
	testMatched := func(pattern string) bool {
		re, err := regexp.Compile(pattern)
		return err == nil && slices.ContainsFunc(tests, re.MatchString)
	}
	resolves := func(ref string) bool {
		if pattern, ok := strings.CutPrefix(ref, "go test -"); ok {
			_, pattern, _ = strings.Cut(pattern, " ")
			return testMatched(pattern)
		}
		if docTest.FindString(ref) == ref {
			return testNamed(ref)
		}
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
		if cmd, flag, ok := strings.Cut(ref, " -"); ok {
			return flags[cmd][flag]
		}
		pkg, name, _ := strings.Cut(ref, ".")
		if typ, m, ok := strings.Cut(name, "."); ok {
			return decls[pkg][typ] && hasMember(pkg+"."+typ, m, 0)
		}
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
			for _, m := range docTestFlag.FindAllStringSubmatch(code, -1) {
				for _, alt := range alternatives(strings.Trim(m[2], "'")) {
					if alt != "^$" && alt != "." {
						refs = append(refs, "go test -"+m[1]+" "+alt)
					}
				}
			}
			code = docTestFlag.ReplaceAllString(code, "")
			refs = append(refs, docTest.FindAllString(code, -1)...)
			if docMake.MatchString(code) || docPath.MatchString(code) {
				refs = append(refs, code)
			} else if m := docCmd.FindStringSubmatch(code); m != nil {
				for _, f := range docFlag.FindAllStringSubmatch(m[2], -1) {
					refs = append(refs, m[1]+" -"+f[1])
				}
			} else {
				for _, m := range docPkgRef.FindAllStringSubmatch(code, -1) {
					switch {
					case decls[m[1]] == nil:
					case m[3] != "" && members[m[1]+"."+m[2]] != nil:
						refs = append(refs, m[1]+"."+m[2]+"."+m[3])
					default:
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

// alternatives splits a go test pattern at its top-level |s, and each
// alternative at its first /, which go test matches against subtests.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern + "|" {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alt, _, _ := strings.Cut(pattern[start:i], "/")
				alts = append(alts, alt)
				start = i + 1
			}
		}
	}
	return alts
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

// cmdFlags returns, per command directory under cmd/, the flags its main.go
// declares: the name argument of each flag-declaring call (String, IntVar,
// Func, ...) on the flag package or on a FlagSet it made.
func cmdFlags(t *testing.T) map[string]map[string]bool {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no command found (%v)", err)
	}
	flags := map[string]map[string]bool{}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		sets := map[string]bool{"flag": true} // the package and its FlagSets
		declared := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if a, ok := n.(*ast.AssignStmt); ok && len(a.Lhs) == 1 && len(a.Rhs) == 1 {
				if id, ok := a.Lhs[0].(*ast.Ident); ok {
					if x, m, _ := callee(a.Rhs[0]); x == "flag" && m == "NewFlagSet" {
						sets[id.Name] = true
					}
				}
			}
			x, m, call := callee(n)
			if !sets[x] || !flagDecl.MatchString(m) {
				return true
			}
			arg := 0 // flag.Int("name", ...), but flag.IntVar(&v, "name", ...)
			if strings.HasSuffix(m, "Var") {
				arg = 1
			}
			if arg < len(call.Args) {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					declared[strings.Trim(lit.Value, "`\"")] = true
				}
			}
			return true
		})
		flags[filepath.Base(filepath.Dir(path))] = declared
	}
	return flags
}

// typeKey returns "pkg.Type" for a receiver or embedded-field type expression
// of a file in package pkg: T, *T, T[P] and q.T (q's own package).
func typeKey(pkg string, x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.SelectorExpr:
			if q, ok := t.X.(*ast.Ident); ok {
				return q.Name + "." + t.Sel.Name
			}
			return ""
		case *ast.Ident:
			return pkg + "." + t.Name
		default:
			return ""
		}
	}
}

// callee returns x and m of a call x.m(...) whose x is an identifier, and
// the call; empty names when n is no such call.
func callee(n ast.Node) (x, m string, call *ast.CallExpr) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", nil
	}
	return id.Name, sel.Sel.Name, call
}
