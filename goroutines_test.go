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

// goAllowed lists the only functions under internal/ that may start a
// goroutine, as "file:function". Neither puts a second goroutine on a
// simulated machine: the workpool helper runs whole machines (forks, shards,
// trials) as jobs, and the campaign watchdog runs a trial on a goroutine of
// its own and only waits for it.
var goAllowed = []string{
	"internal/workpool/workpool.go:ForEach",
	"internal/faultinject/campaign.go:runWatched",
}

// TestOneGoroutinePerMachine enforces the execution model: one goroutine per
// simulated machine, host parallelism only between machines. It parses every
// non-test Go file under internal/ and fails on any go statement outside
// goAllowed, so a second goroutine on a machine fails the suite instead of
// waiting for a race-detector schedule that happens to catch it.
func TestOneGoroutinePerMachine(t *testing.T) {
	fset := token.NewFileSet()
	seen := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		seen++
		for _, decl := range f.Decls {
			where := filepath.ToSlash(path) + ":" // package-level initializers match no entry
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where += fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !slices.Contains(goAllowed, where) {
					t.Errorf("%s: go statement in %s; a simulated machine runs on one goroutine (allowed: %v)",
						fset.Position(g.Pos()), where, goAllowed)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("parsed no files under internal/")
	}
}
