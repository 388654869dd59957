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

// reachableAllowlist names the declarations under internal/ that no binary
// reaches but that stay on purpose, each with the reason. Keys are
// "pkg.Name" or "pkg.Type.Method". An entry is not a root: whatever only it
// reaches must be listed too, so the list shows what each kept seam costs.
var reachableAllowlist = map[string]string{
	"allocation.PrefixSolver.Stats":     "test seam: core's collapsed-walk test splits a walk's steps into fast, repaired and uncertified",
	"coalition.MemberFunc":              "test seam: tests in three packages pass a plain function as a MemberGame",
	"coalition.MemberFunc.N":            "test seam: tests in three packages pass a plain function as a MemberGame",
	"coalition.MemberFunc.ValueMembers": "test seam: tests in three packages pass a plain function as a MemberGame",
	"planetlab.Authority.Utilization":   "test seam: the capacity ledger's oversubscription checks",
	"stats.Series.YAt":                  "test seam: figure anchors read one point of a series",
	"sim.Engine.Pending":                "test seam: the event queue's depth",
	"faultnet.Dialer.Events":            "test seam: the fault log a seeded chaos test compares across runs",
	"faultnet.Partition.Events":         "test seam: the cut/heal log a partition test compares across runs",
	"faultnet.Partition.Severed":        "test seam: whether a partition test's link is cut",
}

// stdMethods are method names that satisfy standard-library interfaces
// (fmt.Stringer, error, io.Writer and io.Closer, http.ResponseWriter,
// sort/heap, net.Listener), so a standard package calls them without a call
// site in this tree.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Write": true, "Close": true, "WriteHeader": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "Addr": true,
}

// listedPackage is the part of a `go list -json` record the gate reads.
type listedPackage struct {
	ImportPath, Name, Dir, Export string
	GoFiles                       []string
	Module                        *struct{ Main bool }
}

// declNode is one top-level declaration of the tree: a func, a method, a
// type or a const.
type declNode struct {
	name, pos string   // "pkg.Name" or "pkg.Type.Method", and where it is declared
	internal  bool     // declared under internal/
	recv      string   // a method's receiver type key
	method    string   // a method's name
	uses      []string // keys of the package-level objects the declaration refers to
}

// TestInternalExportsReachable keeps internal/ to code a binary runs: every
// func, method, type and const declared in a non-test file under internal/
// must be reachable from a binary of this tree, or be on reachableAllowlist.
// The roots are every main of the module, examples/ and the separate
// cmd/fedbench module, every init and every package-level var initializer.
// A declaration reaches the objects it refers to, resolved by type: each
// main-module package's non-test files are type-checked against its
// dependencies' export data, so a field, another type's method or another
// package's name of the same spelling does not stand in for a use. A method
// is reached when reached code selects it, or when its receiver type is
// reached and some interface in the tree (or stdMethods) names it, since a
// call through the interface resolves to the interface's method. Code that
// only unreached code or tests call is therefore reported too.
func TestInternalExportsReachable(t *testing.T) {
	nodes := map[string]*declNode{}
	var roots []string // keys the roots refer to
	ifaceMethods := map[string]bool{}
	for name := range stdMethods {
		ifaceMethods[name] = true
	}
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
			uses := func(n ast.Node) []string {
				var keys []string
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if key := objKey(info.Uses[id]); key != "" {
							keys = append(keys, key)
						}
					}
					return true
				})
				return keys
			}
			internal := strings.Contains(p.ImportPath+"/", "/internal/")
			add := func(id *ast.Ident, n ast.Node) *declNode {
				key := objKey(info.Defs[id])
				d := &declNode{
					name: p.Name + strings.TrimPrefix(key, p.ImportPath), pos: fset.Position(id.Pos()).String(),
					internal: internal, uses: uses(n),
				}
				nodes[key] = d
				return d
			}
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					if it, ok := n.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, name := range m.Names {
								ifaceMethods[name.Name] = true
							}
						}
					}
					return true
				})
				for _, decl := range f.Decls {
					switch decl := decl.(type) {
					case *ast.FuncDecl:
						switch {
						case decl.Recv != nil:
							d := add(decl.Name, decl)
							d.method = decl.Name.Name
							d.recv = objKey(recvType(info.Defs[decl.Name].(*types.Func)))
						case decl.Name.Name == "init":
							roots = append(roots, uses(decl)...)
						default:
							add(decl.Name, decl)
							if p.Name == "main" && decl.Name.Name == "main" {
								roots = append(roots, objKey(info.Defs[decl.Name]))
							}
						}
					case *ast.GenDecl:
						for _, spec := range decl.Specs {
							switch spec := spec.(type) {
							case *ast.TypeSpec:
								add(spec.Name, spec)
							case *ast.ValueSpec:
								if decl.Tok == token.VAR {
									roots = append(roots, uses(spec)...)
									continue
								}
								for _, name := range spec.Names {
									if name.Name != "_" {
										add(name, spec)
									}
								}
							}
						}
					}
				}
			}
		}
	}

	// A type, once reached, reaches its methods that an interface names.
	ifaceMethodsOf := map[string][]string{}
	for key, d := range nodes {
		if d.recv != "" && ifaceMethods[d.method] {
			ifaceMethodsOf[d.recv] = append(ifaceMethodsOf[d.recv], key)
		}
	}
	reached := map[string]bool{}
	for queue := roots; len(queue) > 0; {
		key := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		d := nodes[key]
		if d == nil || reached[key] {
			continue
		}
		reached[key] = true
		queue = append(queue, d.uses...)
		queue = append(queue, ifaceMethodsOf[key]...)
	}

	unreached := map[string]bool{}
	for key, d := range nodes {
		if !d.internal || reached[key] {
			continue
		}
		unreached[d.name] = true
		if _, ok := reachableAllowlist[d.name]; !ok {
			t.Errorf("%s: no binary reaches %s; delete it, move it into a test, or allowlist it with a reason", d.pos, d.name)
		}
	}
	var stale []string
	for name := range reachableAllowlist {
		if !unreached[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("reachableAllowlist entry %s is gone or now reached; drop it from the list", name)
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

// objKey names a package-level object "path.Name" and a method
// "path.Type.Method", the same for the object a package declares and the
// one its importers load from export data. It returns "" for anything else:
// locals, fields, labels and the universe's names.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := recvType(fn); recv != nil {
			return fn.Pkg().Path() + "." + recv.Name() + "." + fn.Name()
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvType is the named type a method is declared on, nil for a function.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
