package tycoongrid_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// allowedUncalled is every exported name under internal/ that no non-test
// Go file outside bench/ calls, with the class of reason it may stay: bench/
// is its only caller (ROADMAP item 1(a) deletes the row), it is a test
// double or fixture the tests of another package use, or it is the typed
// client of a route a daemon serves.
var allowedUncalled = []struct {
	name, reason string
}{
	{"arc.Manager.Submit", benchOnly}, // bench/'s grid workloads submit with no span
	{"auction.Config.Tracer", benchOnly},
	{"bank.Bank.Accounts", benchOnly},
	{"bank.WithTracer", benchOnly}, // a no-op since exemplars take the span from the context
	{"durable.Store.Append", benchOnly},
	{"experiment.StrategiesParams.Predictor", benchOnly}, // bench/'s broker-predict sets and reads it
	{"marketplane.NewShardedBank", benchOnly},
	{"marketplane.Plane.EnqueueBidAt", benchOnly},
	{"marketplane.Plane.PriceAt", benchOnly},
	{"marketplane.Plane.ShardIndexOf", benchOnly},
	{"marketplane.Plane.TickShard", benchOnly},
	{"marketplane.TickResult.Refunds", benchOnly}, // the plane fills it; bench/'s plane-burst settles it
	{"marketplane.ShardedBank.Holds", benchOnly},
	{"pricefeed.NewHub", benchOnly},
	{"pricefeed.Hub.Observer", benchOnly},
	{"sim.Engine.Steps", benchOnly},
	{"trace.NewRecorder", benchOnly},
	{"trace.Recorder.Record", benchOnly},

	{"agent.Agent.Jobs", testDouble},     // experiment's and grid's tests
	{"arc.Meta.Replicas", testDouble},    // box's tests
	{"arc.Meta.Strategy", testDouble},    // box's tests
	{"failpoint.SetCrash", testDouble},   // bank's WAL tests
	{"failpoint.Disarm", testDouble},     // bank's WAL tests
	{"fault.NewTransport", testDouble},   // httpapi's retry tests
	{"grid.Cluster.Outages", testDouble}, // box's, chaos's and experiment's churn tests
	{"mathx.AlmostEqual", testDouble},    // the numeric tests of eight other packages
	{"matrix.FromRows", testDouble},      // portfolio's tests
	{"tracing.Tracer.Reset", testDouble}, // httpapi's tracing tests
	{"tracing.WithSeed", testDouble},     // arc's timeline tests

	// bankd serves GET /history/{id} and GET /publickey, gridmarketd POST
	// /boosts, POST /cancels, GET /jobs and GET /monitor, slsd GET and
	// DELETE /hosts/{id}.
	{"httpapi.BankClient.History", routeCall},
	{"httpapi.BankClient.PublicKey", routeCall},
	{"httpapi.SLSClient.Deregister", routeCall},
	{"httpapi.SLSClient.Lookup", routeCall},
	{"jobapi.Client.Boost", routeCall},
	{"jobapi.Client.Cancel", routeCall},
	{"jobapi.Client.Jobs", routeCall},
	{"jobapi.Client.Monitor", routeCall},
}

const (
	benchOnly  = "bench-only (ROADMAP item 1(a))"
	testDouble = "test double or fixture used by tests of another package"
	routeCall  = "typed client of a route a daemon serves"
)

// TestEveryExportedNameHasACaller holds internal/ to its callers: every
// exported top-level name, method and field declared there is referenced by
// some non-test Go file of the module outside bench/, or has a row in
// allowedUncalled. A reference is a use or selection the type checker
// records (a promoted member's selection uses each embedded field on its
// path), or a method that implements a method of an interface type some
// non-test code outside bench/ mentions, a parameter type of a
// standard-library call included. A field is referenced only where it is
// read: a composite-literal key, an assignment or inc/dec target, an operand
// of & and the x.f inside x.f = append(x.f, …) write it (modPkg.writes), and
// a field with a json tag is read by encoding/json. A row whose name is no
// longer declared, or that now has a caller, fails; so does a bench-only row
// bench/ neither reads nor writes. Any other name only tests use belongs in
// its own package's _test.go, or deleted with its tests.
func TestEveryExportedNameHasACaller(t *testing.T) {
	m := loadModule(t)
	declared, tagged := m.exportedUnderInternal()
	used := m.references(func(p *modPkg) bool { return !p.bench }, true)
	for obj := range tagged {
		used[obj] = true
	}
	benchUsed := m.references(func(p *modPkg) bool { return p.bench }, false)

	rows := map[string]bool{}
	for _, r := range allowedUncalled {
		if rows[r.name] {
			t.Errorf("%s has two rows", r.name)
		}
		rows[r.name] = true
		switch obj, ok := declared[r.name]; {
		case !ok:
			t.Errorf("%s has a row but is not declared; delete the row", r.name)
		case used[obj]:
			t.Errorf("%s has a row but also a caller; delete the row", r.name)
		case r.reason == benchOnly && !benchUsed[obj]:
			t.Errorf("%s has a bench-only row but bench/ does not reference it; delete it", r.name)
		case r.reason != benchOnly && r.reason != testDouble && r.reason != routeCall:
			t.Errorf("%s: reason %q is none of the three classes", r.name, r.reason)
		}
	}
	var missing []string
	for name, obj := range declared {
		if !used[obj] && !rows[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s (%s) has no caller outside tests and bench/: delete it, move it into a _test.go, or give it a row in allowedUncalled",
			name, m.fset.Position(declared[name].Pos()))
	}
}

// TestBenchOnlyNamesLiveInBenchOnlyGo holds the quarantine that keeps ROADMAP
// item 4 a file deletion: in a package that has a benchonly.go, a function,
// method or type with a bench-only row must be declared in that file. A
// field is exempt, since it belongs to a type a world uses
// (marketplane.TickResult.Refunds).
func TestBenchOnlyNamesLiveInBenchOnlyGo(t *testing.T) {
	m := loadModule(t)
	declared, _ := m.exportedUnderInternal()
	quarantined := map[string]bool{} // import paths of the packages with a benchonly.go
	for path, p := range m.pkgs {
		for _, f := range p.files {
			if filepath.Base(m.fset.Position(f.Package).Filename) == "benchonly.go" {
				quarantined[path] = true
			}
		}
	}
	for _, r := range allowedUncalled {
		obj, ok := declared[r.name]
		if r.reason != benchOnly || !ok || !quarantined[obj.Pkg().Path()] {
			continue
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			continue
		}
		if file := filepath.Base(m.fset.Position(obj.Pos()).Filename); file != "benchonly.go" {
			t.Errorf("%s is bench-only but declared in %s: move it to %s's benchonly.go", r.name, file, obj.Pkg().Name())
		}
	}
}

const modulePath = "tycoongrid"

// module is every package of the module, type-checked from its non-test
// files; the standard library is type-checked from source.
type module struct {
	fset *token.FileSet
	pkgs map[string]*modPkg // by import path
}

type modPkg struct {
	bench  bool // under bench/
	files  []*ast.File
	types  *types.Package
	info   *types.Info
	writes map[*ast.Ident]bool // the selectors and keys that write a field
}

var (
	moduleOnce sync.Once
	moduleVal  *module
	moduleErr  error
)

// loadModule type-checks the module once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { moduleVal, moduleErr = load() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleVal
}

func load() (*module, error) {
	// Type-check the standard library as a pure-Go build, so that the
	// scan needs no C toolchain.
	build.Default.CgoEnabled = false
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*modPkg{}}
	std := importer.ForCompiler(m.fset, "source", nil)
	var check func(path string) (*modPkg, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
			return std.Import(path)
		}
		p, err := check(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	})
	check = func(path string) (*modPkg, error) {
		if p, ok := m.pkgs[path]; ok {
			return p, nil
		}
		dir := "." + strings.TrimPrefix(path, modulePath)
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		p := &modPkg{bench: dir == "./bench" || strings.HasPrefix(dir, "./bench/")}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
			return nil, err
		}
		p.writes = writtenIdents(p.files)
		m.pkgs[path] = p
		return p, nil
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		}
		if err != nil {
			return err
		}
		_, err = check(filepath.ToSlash(filepath.Join(modulePath, path)))
		return err
	})
	return m, err
}

// writtenIdents is every identifier in files that names what is written
// there, not read: a composite-literal key, the selector of an assignment or
// inc/dec target or of an operand of &, and the x.f inside
// x.f = append(x.f, …). A field named only there is state nothing consumes.
func writtenIdents(files []*ast.File) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					target(lhs)
					if len(n.Rhs) != len(n.Lhs) {
						continue
					}
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 &&
						types.ExprString(call.Fun) == "append" && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
						target(call.Args[0])
					}
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id] = true
				}
			}
			return true
		})
	}
	return writes
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportedUnderInternal names every exported top-level object, method and
// struct field declared under internal/ as pkg.Name or pkg.Type.Member, and
// sets apart the fields that have a json tag.
func (m *module) exportedUnderInternal() (out map[string]types.Object, tagged map[types.Object]bool) {
	out, tagged = map[string]types.Object{}, map[types.Object]bool{}
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out[p.types.Name()+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			prefix := p.types.Name() + "." + name + "."
			for i := range named.NumMethods() {
				if f := named.Method(i); f.Exported() {
					out[prefix+f.Name()] = f
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := range u.NumFields() {
					if f := u.Field(i); f.Exported() {
						out[prefix+f.Name()] = f
						if _, ok := reflect.StructTag(u.Tag(i)).Lookup("json"); ok {
							tagged[f] = true
						}
					}
				}
			case *types.Interface:
				for i := range u.NumExplicitMethods() {
					if f := u.ExplicitMethod(i); f.Exported() {
						out[prefix+f.Name()] = f
					}
				}
			}
		}
	}
	return out, tagged
}

// references is every object the packages in scope refer to, by their
// generic origin; with readsOnly, a field they only write is not one.
func (m *module) references(inScope func(*modPkg) bool, readsOnly bool) map[types.Object]bool {
	used := map[types.Object]bool{}
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	// usePath marks the embedded fields a promoted selection passes
	// through, then the member it ends at, if any.
	usePath := func(recv types.Type, index []int, member types.Object) {
		for _, i := range index[:len(index)-1] {
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			st, ok := recv.Underlying().(*types.Struct)
			if !ok {
				break
			}
			use(st.Field(i))
			recv = st.Field(i).Type()
		}
		if member != nil {
			use(member)
		}
	}
	// errors.Is and errors.As call Unwrap through an interface that no
	// signature names.
	errorType := types.Universe.Lookup("error").Type()
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errorType)), false))}, nil)
	ifaces := map[*types.Interface]bool{unwrap.Complete(): true}
	var collect func(types.Type)
	collect = func(typ types.Type) {
		switch t := typ.(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		case *types.Interface:
			ifaces[t] = true
		case *types.Slice: // a variadic parameter's
			collect(t.Elem())
		case *types.Signature: // heap.Push's heap.Interface, http.Handle's Handler
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := range tup.Len() {
					collect(tup.At(i).Type())
				}
			}
		}
	}
	for _, p := range m.pkgs {
		if !inScope(p) {
			continue
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); !readsOnly || !ok || !v.IsField() || !p.writes[id] {
				use(obj)
			}
		}
		for sel, s := range p.info.Selections {
			member := s.Obj()
			if readsOnly && s.Kind() == types.FieldVal && p.writes[sel.Sel] {
				member = nil // written; the embedded fields on its path are read
			}
			usePath(s.Recv(), s.Index(), member)
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				collect(tv.Type)
			}
		}
	}
	// A method that implements a mentioned interface is called through it.
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || tn.Type().(*types.Named).TypeParams().Len() > 0 {
				continue
			}
			// An interface's own method is called through an interface
			// it satisfies; a concrete type's, through its pointer's
			// method set.
			recv := tn.Type()
			if !types.IsInterface(recv) {
				recv = types.NewPointer(recv)
			}
			for it := range ifaces {
				if it.NumMethods() == 0 || !it.IsMethodSet() || !types.Implements(recv, it) {
					continue
				}
				for i := range it.NumMethods() {
					obj, index, _ := types.LookupFieldOrMethod(recv, false, p.types, it.Method(i).Name())
					if obj != nil {
						usePath(recv, index, obj)
					}
				}
			}
		}
	}
	return used
}
