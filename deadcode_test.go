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

// deadcodeAllowlist names the findings under internal/ that may stay,
// keyed as the gate prints them: declarations without a caller in non-test
// code, fields no non-test code reads, and knobs only their defaults set.
// Every entry gives one of three kinds of reason: (a) a test seam or a
// cross-package test oracle, (b) part of the cold ADMM probe that bench/
// names, which goes with ROADMAP item 18, (c) the consumer a ROADMAP item
// names. An entry that is no longer a finding fails the gate: the list only
// shrinks.
var deadcodeAllowlist = map[string]string{
	"metrics.SLOTracker.SetClock": "(a) test seam: fixes the clock the SLO windows read",
	"metrics.Journal.SetClock":    "(a) test seam: fixes the journal's timestamps",
	"monitor.Collector.SetClock":  "(a) test seam: fixes the sliding windows' clock",
	"monitor.RateSeries.SetClock": "(a) test seam: fixes the rate series' clock",
	"solver.EstimateLipschitz":    "(a) test oracle: portfolio/oracle_test.go checks the planner's step against it",
	"trace.ReadCSV":               "(a) test oracle: round-trips WriteCSV, cmd/tracegen's format; FuzzReadCSV's target",
	"portfolio.Config.Breakdown":  "(c) ROADMAP item 5: the per-round trace record carries the cost terms",
	"microsim.Result.Journal":     "(a) test oracle: the lifecycle counts microsim_test.go and testbed's TestDifferentialJournalLaw compare",
	"sweep.Options.StopAfter":     "(a) test seam: halts a sweep after n cells, the interruption the checkpoint-resume tests resume from",
	"solver.Result.DuaRes":        "(b) ADMM's final dual residual, part of the cold ADMM probe bench/ names (ROADMAP item 18(a))",
	"solver.ADMMSettings.Rho":     "(b) ADMM's penalty parameter, part of the cold ADMM probe bench/ names (ROADMAP item 18(a))",
	"solver.ADMMSettings.Sigma":   "(b) ADMM's primal regularization, part of the cold ADMM probe bench/ names (ROADMAP item 18(a))",
	"solver.ADMMSettings.Alpha":   "(b) ADMM's over-relaxation, part of the cold ADMM probe bench/ names (ROADMAP item 18(a))",
	"sim.Config.GroupCorrelation": "(c) ROADMAP FOUND on ρ = 0: every fluid run samples revocations uncorrelated; the fix moves sim numbers and waits for item 3",
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
//
// Field rules, over the struct fields of internal/'s package-level types
// (fieldScan says what reads and sets a field):
//   - dead field: no non-test code reads it;
//   - knob with one value: an exported field that no non-test code sets but
//     its type's defaults (unexported fields are state, not knobs).
//
// Exported fields of the types the root package's API holds by value
// (apiTypes) are exempt from both: callers outside the module set and read
// them.
func TestNoDeadExports(t *testing.T) {
	dead, err := deadExports()
	if err != nil {
		t.Fatal(err)
	}
	for key := range deadcodeAllowlist {
		if _, ok := dead[key]; !ok {
			t.Errorf("allowlist entry %s is not a finding: it is not declared, or non-test code uses it: delete the entry", key)
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
		t.Errorf("%s: %s", key, dead[key])
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
	fields := newFieldScan()
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
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		fields.scan(files, info)
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
				dead[rel+"."+name] = "no caller in non-test code (" + fset.Position(obj.Pos()).String() + ")"
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
					dead[rel+"."+name+"."+m.Name()] = "no caller in non-test code (" + fset.Position(m.Pos()).String() + ")"
				}
			}
		}
	}
	for key, why := range fields.findings(checked, fset) {
		dead[key] = why
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

// fieldScan records, over the module's non-test files, which struct fields
// are read and which are set other than by their type's own defaults.
//
// A plain `=` assignment and a key (or position) in a composite literal
// write a field; every other selector reads it, `op=`, `++` and `&x.f`
// included, and the last three also set it. Fields read without a selector
// are read too: those of a struct used as a map key, compared with `==` or
// passed by value as an interface argument, where it can be hashed,
// compared or printed (and of the structs and arrays it holds by value);
// those an embedded field's promotion passes through; and every field of a
// struct that has a field tag (encoding/json reads and sets those). A write
// is a default when it assigns a value that depends on no variable inside a
// function named withDefaults or WithDefaults, or under an `if` whose
// condition reads the same field (a zero-value or range guard).
type fieldScan struct {
	read  map[*types.Var]bool
	tuned map[*types.Var]bool // set somewhere other than by a default
}

func newFieldScan() *fieldScan {
	return &fieldScan{read: map[*types.Var]bool{}, tuned: map[*types.Var]bool{}}
}

// How a statement uses the selector on its left-hand side.
const (
	selWrite     = iota + 1 // plain `=`: sets the field without reading it
	selDefault              // plain `=` of a fixed value in a default
	selReadWrite            // `op=`, `++`, `&x.f`: reads and sets it
)

func (fs *fieldScan) scan(files []*ast.File, info *types.Info) {
	for _, f := range files {
		role := map[*ast.SelectorExpr]int{}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					switch {
					case !ok:
					case n.Tok != token.ASSIGN:
						role[sel] = selReadWrite
					case len(n.Rhs) == len(n.Lhs) && fixed(n.Rhs[i], info) && isDefault(stack, sel, info):
						role[sel] = selDefault
					default:
						role[sel] = selWrite
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					role[sel] = selReadWrite
				}
			case *ast.UnaryExpr:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
					role[sel] = selReadWrite
				}
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok { // an array, slice or map literal
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							fs.tuned[v.Origin()] = true
						}
					} else {
						fs.tuned[st.Field(i).Origin()] = true
					}
				}
			case *ast.StructType:
				if st := info.Types[n].Type.(*types.Struct); tagged(st) {
					for i := 0; i < st.NumFields(); i++ {
						fs.read[st.Field(i).Origin()] = true
						fs.tuned[st.Field(i).Origin()] = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					fs.readAll(info.Types[n.X].Type)
				}
			case *ast.CallExpr:
				sig, ok := info.Types[n.Fun].Type.(*types.Signature)
				if !ok { // a conversion
					break
				}
				params := sig.Params()
				for i, arg := range n.Args {
					var p types.Type
					switch last := params.Len() - 1; {
					case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
						p = params.At(last).Type().(*types.Slice).Elem()
					case i <= last:
						p = params.At(i).Type()
					}
					if p != nil && types.IsInterface(p) {
						fs.readAll(info.Types[arg].Type)
					}
				}
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				if sel == nil { // a qualified identifier
					break
				}
				t := sel.Recv()
				idx := sel.Index()
				for _, i := range idx[:len(idx)-1] { // embedded fields the selector passes through
					st := structOf(t)
					fs.read[st.Field(i).Origin()] = true
					t = st.Field(i).Type()
				}
				if sel.Kind() != types.FieldVal {
					break
				}
				v := sel.Obj().(*types.Var).Origin()
				switch role[n] {
				case selDefault:
				case selWrite:
					fs.tuned[v] = true
				case selReadWrite:
					fs.read[v], fs.tuned[v] = true, true
				default:
					fs.read[v] = true
				}
			}
			return true
		})
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			fs.readAll(m.Key())
		}
	}
}

// readAll marks read every field that comparing or hashing a value of type t
// reads.
func (fs *fieldScan) readAll(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			fs.read[u.Field(i).Origin()] = true
			fs.readAll(u.Field(i).Type())
		}
	case *types.Array:
		fs.readAll(u.Elem())
	}
}

func tagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Tag(i) != "" {
			return true
		}
	}
	return false
}

// isDefault reports whether the assignment to sel on top of stack sits in a
// withDefaults/WithDefaults function or under an `if` that reads sel's field.
func isDefault(stack []ast.Node, sel *ast.SelectorExpr, info *types.Info) bool {
	field := info.Selections[sel]
	if field == nil {
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return n.Name.Name == "withDefaults" || n.Name.Name == "WithDefaults"
		case *ast.IfStmt:
			guard := false
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if s, ok := c.(*ast.SelectorExpr); ok && info.Selections[s] != nil && info.Selections[s].Obj() == field.Obj() {
					guard = true
				}
				return !guard
			})
			if guard {
				return true
			}
		}
	}
	return false
}

// fixed reports whether e's value depends on no variable: it names only
// constants, types, functions and packages.
func fixed(e ast.Expr, info *types.Info) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if id, isID := n.(*ast.Ident); isID {
			if v, isVar := info.Uses[id].(*types.Var); isVar && !v.IsField() {
				ok = false
			}
		}
		return ok
	})
	return ok
}

func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying().(*types.Struct)
}

// findings returns the struct fields of internal/'s package-level types that
// no non-test code reads, and their exported fields that nothing but their
// type's defaults sets (a nested struct's fields are no knobs), keyed as
// "pkg.Type.Field". Exported fields of the types the module's public API
// holds by value are exempt from both.
func (fs *fieldScan) findings(checked map[string]*types.Package, fset *token.FileSet) map[string]string {
	api := apiTypes(checked["repro"])
	out := map[string]string{}
	var visit func(key string, st *types.Struct, public, knobs bool)
	visit = func(key string, st *types.Struct, public, knobs bool) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || public && f.Exported() {
				continue
			}
			fkey := key + "." + f.Name()
			pos := " (" + fset.Position(f.Pos()).String() + ")"
			switch {
			case !fs.read[f]:
				out[fkey] = "no non-test code reads this field" + pos
			case knobs && f.Exported() && !fs.tuned[f]:
				out[fkey] = "a knob with one value: only its type's defaults set it" + pos
			}
			if inner, ok := f.Type().(*types.Struct); ok {
				visit(fkey, inner, public, false)
			}
		}
	}
	const internal = "repro/internal/"
	for path, pkg := range checked {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				visit(strings.TrimPrefix(path, internal)+"."+name, st, api[tn.Type()], true)
			}
		}
	}
	return out
}

// apiTypes returns the named types the root package's exported types and
// aliases hold by value: through their exported fields, slices, arrays and
// maps. A pointer is a handle the caller passes on, not a value it builds,
// and is not followed.
func apiTypes(root *types.Package) map[types.Type]bool {
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if !seen[t] {
				seen[t] = true
				walk(t.Underlying())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					walk(t.Field(i).Type())
				}
			}
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		}
	}
	scope := root.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
			walk(tn.Type())
		}
	}
	return seen
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
