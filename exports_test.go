package fedshare_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachableAllowlist names the exported funcs and methods under internal/
// that no non-test file uses but that stay on purpose, each with the reason.
// Keys are "pkg.Func" or "pkg.Type.Method".
var reachableAllowlist = map[string]string{
	"coalition.Singletons":            "owen.go: the Owen value that deferred Owen-composed sampling builds on",
	"coalition.QuotientGame":          "owen.go: the Owen value that deferred Owen-composed sampling builds on",
	"coalition.BlockShares":           "owen.go: the Owen value that deferred Owen-composed sampling builds on",
	"core.HierarchicalShapley":        "the authority/member Owen split that deferred Owen-composed sampling builds on",
	"core.DiversityAblation":          "documented, measured extension: the diversity-premium ablation",
	"core.TotalDistortion":            "documented, measured extension: the diversity-premium ablation's distance",
	"loss.NewGame":                    "documented, measured extension: the loss-network value game",
	"policy.WeightTable.Blend":        "documented, measured extension: demand-mixture blending of offline weights",
	"policy.WeightTable.Lookup":       "the paper's Sec. 3.2.3 offline-weights lookup: a run's weights read from the precomputed table",
	"allocation.Memo.SetEnabled":      "test seam: the memo-off reference of the determinism tests",
	"allocation.PrefixSolver.Stats":   "test seam: core's collapsed-walk test splits a walk's steps into fast, repaired and uncertified",
	"planetlab.Authority.Utilization": "test seam: the capacity ledger's oversubscription checks",
	"stats.Series.YAt":                "test seam: figure anchors read one point of a series",
	"sim.Engine.Pending":              "test seam: the event queue's depth",
	"faultnet.Dialer.Events":          "test seam: the fault log a seeded chaos test compares across runs",
	"faultnet.Partition.Events":       "test seam: the cut/heal log a partition test compares across runs",
	"faultnet.Partition.Severed":      "test seam: whether a partition test's link is cut",
}

// stdMethods are method names that satisfy standard-library interfaces
// (fmt.Stringer, error, json and text marshalers, io, http.Handler and
// http.ResponseWriter, sort/heap, net.Listener), so a standard package
// calls them without a call site in this tree.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true, "WriteHeader": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Accept": true, "Addr": true,
}

// listedPackage is the part of a `go list -json` record the gate reads.
type listedPackage struct {
	ImportPath, Name, Dir, Export string
	GoFiles                       []string
	Module                        *struct{ Main bool }
}

// TestInternalExportsReachable keeps internal/ to code a binary can reach:
// every exported func or method declared under internal/ must be used by
// some non-test file of this tree (the module, examples/ and the separate
// cmd/fedbench module), or be on reachableAllowlist. Go lets only packages
// under this tree import internal/, so an export that only tests use is
// dead weight. Each main-module package's non-test files are type-checked
// against its dependencies' export data, and a use counts only when it
// resolves to the declared object: a function referred to, or a method a
// selection picks, so a field, another type's method or another package's
// function of the same name does not hide a dead export. A method whose
// name some interface declares counts as reached, since a call through the
// interface resolves to the interface's method.
func TestInternalExportsReachable(t *testing.T) {
	type decl struct {
		key, name, pos string
		method         bool
	}
	decls := map[string]decl{} // by funcKey
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range []string{".", "cmd/fedbench"} {
		pkgs := listPackages(t, dir)
		exports := map[string]string{}
		for _, p := range pkgs {
			exports[p.ImportPath] = p.Export
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		})
		for _, p := range pkgs {
			if p.Module == nil || !p.Module.Main {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
				t.Fatalf("type-check %s: %v", p.ImportPath, err)
			}
			for _, obj := range info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					used[funcKey(fn)] = true
				}
			}
			internal := strings.Contains(p.ImportPath+"/", "/internal/")
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.InterfaceType:
						for _, m := range n.Methods.List {
							for _, name := range m.Names {
								ifaceMethods[name.Name] = true
							}
						}
					case *ast.FuncDecl:
						if internal && n.Name.IsExported() && (n.Recv == nil || !stdMethods[n.Name.Name]) {
							key := funcKey(info.Defs[n.Name].(*types.Func))
							decls[key] = decl{
								key:  p.Name + strings.TrimPrefix(key, p.ImportPath),
								name: n.Name.Name, pos: fset.Position(n.Pos()).String(), method: n.Recv != nil,
							}
						}
					}
					return true
				})
			}
		}
	}

	unreached := map[string]bool{}
	for k, d := range decls {
		if used[k] || (d.method && ifaceMethods[d.name]) {
			continue
		}
		unreached[d.key] = true
		if _, ok := reachableAllowlist[d.key]; !ok {
			t.Errorf("%s: %s is exported but no non-test file uses it; delete it, move it into a test, or allowlist it with a reason", d.pos, d.key)
		}
	}
	var stale []string
	for key := range reachableAllowlist {
		if !unreached[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("reachableAllowlist entry %s is gone or now reached; drop it from the list", key)
	}
}

// listPackages runs `go list -export -deps` over the module in dir: every
// package of the module and its dependencies, each with the export data
// file the build cache holds for it.
func listPackages(t *testing.T, dir string) []listedPackage {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Name,Dir,Export,GoFiles,Module", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// funcKey names a function "path.Func" and a method "path.Type.Method",
// the same for the object a package declares and the one its importers
// load from export data.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name()
	}
	key := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key = n.Obj().Name() + "." + key
		}
	}
	return fn.Pkg().Path() + "." + key
}
