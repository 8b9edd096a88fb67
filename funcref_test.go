package ffccd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unreferencedAllowed lists, as "dir:Name" (or "dir:Type.Name" for a
// method), the top-level funcs no identifier of the module names, each with
// the reason it is kept anyway.
var unreferencedAllowed = map[string]string{}

// TestEveryFuncIsReferenced fails on any top-level func or method of a
// non-test file whose name no other identifier in the module mentions; a
// mention in a test file counts. It matches by name alone, so it finds only
// code nothing can reach, not every dead method; main and init are exempt. A
// method only the standard library calls, through an interface, needs an
// entry in unreferencedAllowed. An allowed entry that no longer needs its
// exemption fails too.
func TestEveryFuncIsReferenced(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{} // identifier → occurrences, declarations included
	type decl struct {
		key  string
		name string
		pos  token.Pos
	}
	var decls []decl
	for _, mf := range parseModule(t, fset) {
		ast.Inspect(mf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if mf.test {
			continue
		}
		for _, d := range mf.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil && (fn.Name.Name == "main" || fn.Name.Name == "init") {
				continue
			}
			key := mf.dir + ":" + fn.Name.Name
			if fn.Recv != nil {
				key = mf.dir + ":" + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, fn.Name.Pos()})
		}
	}
	if len(decls) == 0 {
		t.Fatal("no func declarations found; is the test running in the module root?")
	}

	declared := map[string]int{}
	for _, d := range decls {
		declared[d.name]++
	}
	stillNeeded := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] > declared[d.name] {
			continue
		}
		if _, ok := unreferencedAllowed[d.key]; ok {
			stillNeeded[d.key] = true
			continue
		}
		t.Errorf("%s: %s is referenced nowhere in the module; delete it", fset.Position(d.pos), d.key)
	}
	for key, why := range unreferencedAllowed {
		if !stillNeeded[key] {
			t.Errorf("allowed %s (%s) is referenced or gone; drop it from unreferencedAllowed", key, why)
		}
	}
}

// recvTypeName returns the type name of a method receiver.
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// moduleFile is one parsed Go file of the module.
type moduleFile struct {
	dir  string // the file's directory, relative to the module root
	test bool   // a _test.go file
	f    *ast.File
}

// parseModule parses every Go file of the module outside testdata and
// hidden directories.
func parseModule(t *testing.T, fset *token.FileSet) []moduleFile {
	t.Helper()
	var files []moduleFile
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
		files = append(files, moduleFile{filepath.Dir(path), strings.HasSuffix(path, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// unwrittenAllowed lists, as "dir:Type.Field", the knob fields no non-test
// code writes, each with the reason it is kept anyway.
var unwrittenAllowed = map[string]string{
	"internal/faultinject:TrialOptions.AfterRecovery": "the fault-injection hook that proves the failure → repro → replay loop catches a broken recovery",
}

// knobSuffixes are the struct name endings TestEveryKnobIsWritten checks.
var knobSuffixes = []string{"Options", "Config", "Hooks", "Spec"}

// TestEveryKnobIsWritten fails on any exported field of an exported struct
// type named …Options, …Config, …Hooks or …Spec, declared outside bench/,
// that no non-test code writes: no composite literal keys it and no
// assignment or ++/-- has it on the left. A knob only tests set selects a
// second path the product never takes; its test belongs next to the code the
// test drives instead. It matches fields by name alone, like
// TestEveryFuncIsReferenced, so a name some other struct's write shares
// passes. An allowed entry that is written or gone fails too.
func TestEveryKnobIsWritten(t *testing.T) {
	fset := token.NewFileSet()
	written := map[string]bool{}
	type field struct {
		key string
		pos token.Pos
	}
	var fields []field
	lhs := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			written[sel.Sel.Name] = true
		}
	}
	for _, mf := range parseModule(t, fset) {
		if mf.test {
			continue
		}
		ast.Inspect(mf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							written[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs(e)
				}
			case *ast.IncDecStmt:
				lhs(n.X)
			}
			return true
		})
		if mf.dir == "bench" || strings.HasPrefix(mf.dir, "bench"+string(filepath.Separator)) {
			continue
		}
		for _, d := range mf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, sp := range gd.Specs {
				ts := sp.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !slices.ContainsFunc(knobSuffixes, func(s string) bool {
					return strings.HasSuffix(ts.Name.Name, s)
				}) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							fields = append(fields, field{mf.dir + ":" + ts.Name.Name + "." + name.Name, name.Pos()})
						}
					}
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("no knob fields found; is the test running in the module root?")
	}
	stillNeeded := map[string]bool{}
	for _, fl := range fields {
		name := fl.key[strings.LastIndex(fl.key, ".")+1:]
		if written[name] {
			continue
		}
		if _, ok := unwrittenAllowed[fl.key]; ok {
			stillNeeded[fl.key] = true
			continue
		}
		t.Errorf("%s: %s is written only by tests, if at all; delete it or give it a non-test caller", fset.Position(fl.pos), fl.key)
	}
	for key, why := range unwrittenAllowed {
		if !stillNeeded[key] {
			t.Errorf("allowed %s (%s) is written or gone; drop it from unwrittenAllowed", key, why)
		}
	}
}
