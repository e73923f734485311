package spotweb_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// deadcodeAllowlist names the declarations under internal/ that may stay
// without a caller in non-test code, keyed as the gate prints them.
// Every entry gives one of three kinds of reason: (a) a test seam or a
// cross-package test oracle, (b) part of the cold ADMM probe that bench/
// names, which goes with ROADMAP item 18, (c) the consumer a ROADMAP item
// names. An entry that is no longer declared, or that has gained a caller,
// fails the gate: the list only shrinks.
var deadcodeAllowlist = map[string]string{
	"metrics.SLOTracker.SetClock":  "(a) test seam: fixes the clock the SLO windows read",
	"metrics.Journal.SetClock":     "(a) test seam: fixes the journal's timestamps",
	"monitor.Collector.SetClock":   "(a) test seam: fixes the sliding windows' clock",
	"monitor.RateSeries.SetClock":  "(a) test seam: fixes the rate series' clock",
	"metrics.Subscription.Dropped": "(a) test oracle: risk/feed_test.go's conservation check, observed + dropped = recorded",
	"solver.EstimateLipschitz":     "(a) test oracle: portfolio/oracle_test.go checks the planner's step against it",
	"trace.ReadCSV":                "(a) test oracle: round-trips WriteCSV, cmd/tracegen's format; FuzzReadCSV's target",
	"lb.Balancer.Has":              "(a) test oracle: testbed/stress_test.go checks a drained backend left rotation",
	"lb.Balancer.SessionsOn":       "(a) test oracle: testbed/stress_test.go checks no session is stranded on a drained backend",
	"portfolio.Config.Breakdown":   "(c) ROADMAP item 5: the per-round trace record carries the cost terms",
}

// TestNoDeadExports fails for every package-level function, type, variable or
// constant and every method — exported or not, init functions aside —
// declared in a non-test file under internal/ that no non-test file of the
// module refers to. It type-checks the module's non-test files with go/types; a reference
// from inside the declaration itself (a function's own body, a type's own
// methods) does not count.
//
// Interface rule: a method is live when its name and signature match a
// method of any interface type the program mentions — a named interface of
// the module or of an imported standard package, or an interface literal.
// Those are the methods the linker keeps, and interface calls reach them
// without naming them.
func TestNoDeadExports(t *testing.T) {
	dead, err := deadExports()
	if err != nil {
		t.Fatal(err)
	}
	for key := range deadcodeAllowlist {
		if _, ok := dead[key]; !ok {
			t.Errorf("allowlist entry %s is not declared or has a caller in non-test code: delete the entry", key)
		}
	}
	var keys []string
	for key := range dead {
		if _, ok := deadcodeAllowlist[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s: no caller in non-test code (%s)", key, dead[key])
	}
}

// listedPackage is the part of `go list -json` output the gate reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	Export     string
}

// deadExports returns every declaration under internal/ without a reference
// from non-test code, keyed as "pkg.Name" or "pkg.Type.Method" (pkg relative
// to internal/), with its position as the value.
func deadExports() (map[string]string, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}
	var module []listedPackage // in dependency order
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			module = append(module, p)
		}
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})

	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Signature{} // interface method name → signatures
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ifaces[m.Name()] = append(ifaces[m.Name()], m.Type().(*types.Signature))
		}
	}
	for _, p := range module {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo files are not type-checked", p.ImportPath)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				for n, owners := range declOwners(d, info) {
					ast.Inspect(n, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if obj := origin(info.Uses[id]); obj != nil && !owners[obj] {
								used[obj] = true
							}
						}
						return true
					})
				}
			}
		}
	}
	// Interfaces of the standard packages the module imports: fmt.Stringer,
	// sort.Interface, json.Marshaler and the like are called from inside them.
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	for _, pkg := range checked {
		walk(pkg)
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	matchesIface := func(m *types.Func) bool {
		for _, sig := range ifaces[m.Name()] {
			if types.Identical(sig, m.Type()) {
				return true
			}
		}
		return false
	}
	dead := map[string]string{}
	const internal = "repro/internal/"
	for path, pkg := range checked {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		rel := strings.TrimPrefix(path, internal)
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !used[obj] { // init functions are not in the scope
				dead[rel+"."+name] = fset.Position(obj.Pos()).String()
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !used[m] && !matchesIface(m) {
					dead[rel+"."+name+"."+m.Name()] = fset.Position(m.Pos()).String()
				}
			}
		}
	}
	return dead, nil
}

// declOwners splits d into its function or specs, each mapped to the objects
// whose own references inside it do not make them live: a function or method
// itself and a method's receiver type, or the names a spec defines.
func declOwners(d ast.Decl, info *types.Info) map[ast.Node]map[types.Object]bool {
	parts := map[ast.Node]map[types.Object]bool{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		owners := map[types.Object]bool{info.Defs[d.Name]: true}
		if d.Recv != nil && len(d.Recv.List) == 1 {
			if named := receiverNamed(info.Types[d.Recv.List[0].Type].Type); named != nil {
				owners[named.Obj()] = true
			}
		}
		parts[d] = owners
	case *ast.GenDecl:
		for _, s := range d.Specs {
			owners := map[types.Object]bool{}
			switch s := s.(type) {
			case *ast.TypeSpec:
				owners[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					owners[info.Defs[n]] = true
				}
			}
			parts[s] = owners
		}
	}
	return parts
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// origin maps an instantiated generic function or method to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
