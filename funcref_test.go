package ffccd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil && (fn.Name.Name == "main" || fn.Name.Name == "init") {
				continue
			}
			key := filepath.Dir(path) + ":" + fn.Name.Name
			if fn.Recv != nil {
				key = filepath.Dir(path) + ":" + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, fn.Name.Pos()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
