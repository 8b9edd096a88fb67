package ffccd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// machinePackages are the packages whose state makes up a simulated machine,
// or drives one, on the goroutine that owns it.
var machinePackages = []string{
	"sim", "pmem", "alloc", "pmop", "arch", "core",
	"ds", "kv", "mesh", "workload", "checker", "redisws", "machine",
}

// hostSyncAllowed lists, as "package:Decl.field" (or "package:var"), the only
// host locks, atomics and workpool free lists those packages may hold, each
// with its reason.
var hostSyncAllowed = map[string]string{
	"kv:Echo.mu":           "bench/store_test.go's TestDecoratorCountsConcurrentGets drives one Echo from 8 goroutines",
	"pmop:Pool.Ops":        "the same bench test: Echo.Get's deferred EndOp runs outside Echo.mu",
	"pmem:pagePool.Mutex":  "process-wide pools of media pages and page-table leaves that machines on workpool workers share",
	"pmem:arrayPool":       "process-wide free list of cache arrays that machines of one geometry on workpool workers share",
	"sim:tlbPool":          "process-wide free list of TLB arrays that contexts of one geometry on workpool workers share",
	"core:epochPool":       "process-wide free list of the epoch memory released engines hand to the next ones on workpool workers",
	"redisws:lruPool":      "process-wide free list of the LRU tables released serving runs hand to the next forks on workpool workers",
	"pmop:volatiles":       "process-wide free list of the heap tables and transaction slots released pools hand to the next forked or reopened pools on workpool workers",
	"redisws:latencyHists": "process-wide free list of the latency histograms released serving runs hand to the next runs on workpool workers",
	"sim:ctxSeq":           "process-wide sim.Ctx numbering",
	"machine:Image.forks":  "an image's live-fork count, which forks on workpool workers change",
	"machine:imagePool":    "process-wide free list of released machine images that the next captures on workpool workers fill",
}

// TestNoHostSyncInMachine enforces that a simulated machine is plain data
// owned by one goroutine (TestOneGoroutinePerMachine keeps a second goroutine
// off it). It parses the non-test files of machinePackages and fails on any
// struct field or variable whose type involves sync.Mutex, sync.RWMutex, a
// sync/atomic type or a workpool.FreeList (a lock that machines on different
// workers share), unless hostSyncAllowed names it. An allowed item that no
// longer exists fails too, so the list stays the list of what is kept.
func TestNoHostSyncInMachine(t *testing.T) {
	fset := token.NewFileSet()
	found := map[string]bool{}
	for _, pkg := range machinePackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, d := range hostSyncDecls(f) {
				key := pkg + ":" + d.name
				found[key] = true
				if _, ok := hostSyncAllowed[key]; !ok {
					t.Errorf("%s: %s has host synchronization type %s; a simulated machine is plain data on one goroutine",
						fset.Position(d.pos), key, d.typ)
				}
			}
		}
		if parsed == 0 {
			t.Errorf("internal/%s: no non-test Go files", pkg)
		}
	}
	for key, why := range hostSyncAllowed {
		if !found[key] {
			t.Errorf("allowed %s (%s) no longer exists; drop it from hostSyncAllowed", key, why)
		}
	}
}

// workpoolPath is the import path of workpool, whose FreeList is a lock.
const workpoolPath = "ffccd/internal/workpool"

type hostSyncDecl struct {
	name, typ string
	pos       token.Pos
}

// hostSyncDecls returns the fields, variables and values of f whose type
// mentions a sync mutex, a sync/atomic type or a workpool.FreeList, each named
// after the top-level declaration it sits in: "ctxSeq" for a package variable
// ("tlbPool" for one initialised with a composite literal), "Echo.mu" for a
// field, "pagePool.Mutex" for an embedded one, "RunCycle.mu" for a local.
func hostSyncDecls(f *ast.File) []hostSyncDecl {
	pkgs := map[string]string{} // local import name -> "sync", "sync/atomic" or the workpool path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "sync" || path == "sync/atomic" || path == workpoolPath {
			name := filepath.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = path
		}
	}
	if len(pkgs) == 0 {
		return nil
	}
	// syncType returns the first sync mutex or atomic type in e, or "". It
	// does not look inside struct types: visit reports their fields one by one.
	syncType := func(e ast.Expr) string {
		typ := ""
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.StructType); ok || typ != "" {
				return false
			}
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					switch name := sel.Sel.Name; pkgs[x.Name] {
					case "sync/atomic":
						typ = "atomic." + name
					case "sync":
						if name == "Mutex" || name == "RWMutex" {
							typ = "sync." + name
						}
					case workpoolPath:
						if name == "FreeList" {
							typ = "workpool." + name
						}
					}
				}
			}
			return true
		})
		return typ
	}
	var out []hostSyncDecl
	report := func(name string, e ast.Expr, pos token.Pos) {
		if typ := syncType(e); typ != "" {
			out = append(out, hostSyncDecl{name, typ, pos})
		}
	}
	visit := func(prefix string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					if typ := syncType(fld.Type); typ != "" && len(fld.Names) == 0 { // embedded: named after its type
						report(prefix+typ[strings.IndexByte(typ, '.')+1:], fld.Type, fld.Pos())
					}
					for _, id := range fld.Names {
						report(prefix+id.Name, fld.Type, id.Pos())
					}
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					if n.Type != nil {
						report(prefix+id.Name, n.Type, id.Pos())
					}
				}
			case *ast.CompositeLit:
				if n.Type != nil {
					report(prefix+"literal", n.Type, n.Pos())
				}
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.Ident); ok && fn.Name == "new" && len(n.Args) == 1 {
					report(prefix+"new", n.Args[0], n.Pos())
				}
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			visit(d.Name.Name+".", d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					report(s.Name.Name, s.Type, s.Pos())
					visit(s.Name.Name+".", s.Type)
				case *ast.ValueSpec:
					for i, id := range s.Names {
						typ, values := s.Type, s.Values
						if typ == nil && i < len(values) {
							if lit, ok := values[i].(*ast.CompositeLit); ok && lit.Type != nil {
								typ, values = lit.Type, lit.Elts // var x = T{...} declares an x of type T
							}
						}
						if typ != nil {
							report(id.Name, typ, id.Pos())
							visit(id.Name+".", typ)
						}
						for _, v := range values {
							visit(id.Name+".", v)
						}
					}
				}
			}
		}
	}
	return out
}
