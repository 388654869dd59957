package fedshare_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	"planetlab.Authority.Utilization": "test seam: the capacity ledger's oversubscription checks",
	"stats.Series.YAt":                "test seam: figure anchors read one point of a series",
	"sim.Engine.Pending":              "test seam: the event queue's depth",
	"faultnet.Dialer.Events":          "test seam: the fault log a seeded chaos test compares across runs",
	"faultnet.Partition.Events":       "test seam: the cut/heal log a partition test compares across runs",
	"faultnet.Partition.Severed":      "test seam: whether a partition test's link is cut",
}

// stdMethods are method names that satisfy standard-library interfaces
// (fmt.Stringer, error, json and text marshalers, io, http.Handler,
// sort/heap, net.Listener), so a standard package calls them without a
// named call site.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Accept": true, "Addr": true,
}

// TestInternalExportsReachable keeps internal/ to code a binary can reach:
// every exported func or method declared under internal/ must be named by
// some non-test file of this tree (the module, examples/ and the separate
// cmd/fedbench module), or be on reachableAllowlist. Go lets only packages
// under this tree import internal/, so an export that only tests name is
// dead weight. Matching is by name, which can miss a dead symbol that
// shares its name with a live one but never flags a used one.
func TestInternalExportsReachable(t *testing.T) {
	type decl struct {
		key, name, pos string
		method         bool
	}
	var decls []decl
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			d := decl{name: fd.Name.Name, pos: fset.Position(fd.Pos()).String(), method: fd.Recv != nil}
			d.key = f.Name.Name + "." + d.name
			if d.method {
				if stdMethods[d.name] {
					continue
				}
				d.key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + d.name
			}
			decls = append(decls, d)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	unreached := map[string]bool{}
	for _, d := range decls {
		if used[d.name] || (d.method && ifaceMethods[d.name]) {
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

// recvType returns the receiver's type name without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
