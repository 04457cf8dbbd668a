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
	"sort"
	"strings"
	"sync"
	"testing"
)

// allowedUncalled is every exported name under internal/ that no non-test
// Go file outside bench/ calls, with the class of reason it may stay: bench/
// is its only caller (ROADMAP item 1(a) deletes the row), it is the churn
// injector ROADMAP item 9 wires up (and deletes the row), it is a test
// double or fixture the tests of another package use, or it is the typed
// client of a route a daemon serves.
var allowedUncalled = []struct {
	name, reason string
}{
	{"auction.Config.Tracer", benchOnly},
	{"bank.Bank.Accounts", benchOnly},
	{"durable.Store.Append", benchOnly},
	{"marketplane.NewShardedBank", benchOnly},
	{"marketplane.Plane.EnqueueBidAt", benchOnly},
	{"marketplane.Plane.PriceAt", benchOnly},
	{"marketplane.Plane.ShardIndexOf", benchOnly},
	{"marketplane.Plane.TickShard", benchOnly},
	{"marketplane.ShardedBank.Holds", benchOnly},
	{"pricefeed.NewHub", benchOnly},
	{"pricefeed.Hub.Observer", benchOnly},
	{"sim.Engine.Steps", benchOnly},
	{"trace.NewRecorder", benchOnly},
	{"trace.Recorder.Record", benchOnly},

	{"fault.NewInjector", churn},
	{"fault.Injector.Start", churn},
	{"fault.Injector.Stop", churn},
	{"fault.Injector.Failures", churn},
	{"fault.Injector.Recoveries", churn},

	{"agent.Agent.Jobs", testDouble},     // experiment's and grid's tests
	{"arc.Meta.Replicas", testDouble},    // box's tests
	{"arc.Meta.Strategy", testDouble},    // box's tests
	{"failpoint.SetCrash", testDouble},   // bank's WAL tests
	{"failpoint.Disarm", testDouble},     // bank's WAL tests
	{"fault.NewTransport", testDouble},   // httpapi's retry tests
	{"mathx.AlmostEqual", testDouble},    // the numeric tests of eight other packages
	{"matrix.FromRows", testDouble},      // portfolio's tests
	{"tracing.Tracer.Reset", testDouble}, // httpapi's tracing tests
	{"tracing.WithSeed", testDouble},     // arc's timeline tests
	{"tsdb.Ring.Capacity", testDouble},   // auction's, experiment's and pricefeed's ring tests

	// bankd serves GET /history/{id} and GET /publickey, gridmarketd POST
	// /boosts, POST /cancels, GET /jobs and GET /monitor, slsd GET and
	// DELETE /hosts/{id}.
	{"httpapi.BankClient.History", routeCall},
	{"httpapi.BankClient.PublicKey", routeCall},
	{"httpapi.JobClient.Boost", routeCall},
	{"httpapi.JobClient.Cancel", routeCall},
	{"httpapi.JobClient.Jobs", routeCall},
	{"httpapi.JobClient.Monitor", routeCall},
	{"httpapi.SLSClient.Deregister", routeCall},
	{"httpapi.SLSClient.Lookup", routeCall},
}

const (
	benchOnly  = "bench-only (ROADMAP item 1(a))"
	churn      = "churn injector (ROADMAP item 9)"
	testDouble = "test double or fixture used by tests of another package"
	routeCall  = "typed client of a route a daemon serves"
)

// TestEveryExportedNameHasACaller holds internal/ to its callers: every
// exported top-level name, method and field declared there is referenced by
// some non-test Go file of the module outside bench/, or has a row in
// allowedUncalled. A reference is a use or selection the type checker
// records (a promoted member's selection uses each embedded field on its
// path), or a method that implements
// a method of an interface type some non-test code outside bench/ mentions,
// a parameter type of a standard-library call included. A row whose name is
// no longer declared, or that now has a caller, fails; so does a bench-only
// row bench/ no longer references. Any other name only tests use belongs in
// its own package's _test.go, or deleted with its tests.
func TestEveryExportedNameHasACaller(t *testing.T) {
	m := loadModule(t)
	declared := m.exportedUnderInternal()
	used := m.references(func(p *modPkg) bool { return !p.bench })
	benchUsed := m.references(func(p *modPkg) bool { return p.bench })

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
		case r.reason != benchOnly && r.reason != churn && r.reason != testDouble && r.reason != routeCall:
			t.Errorf("%s: reason %q is none of the four classes", r.name, r.reason)
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

const modulePath = "tycoongrid"

// module is every package of the module, type-checked from its non-test
// files; the standard library is type-checked from source.
type module struct {
	fset *token.FileSet
	pkgs map[string]*modPkg // by import path
}

type modPkg struct {
	bench bool // under bench/
	types *types.Package
	info  *types.Info
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
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(path, m.fset, files, p.info); err != nil {
			return nil, err
		}
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

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportedUnderInternal names every exported top-level object, method and
// struct field declared under internal/ as pkg.Name or pkg.Type.Member.
func (m *module) exportedUnderInternal() map[string]types.Object {
	out := map[string]types.Object{}
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
	return out
}

// references is every object the packages in scope refer to, by their
// generic origin.
func (m *module) references(inScope func(*modPkg) bool) map[types.Object]bool {
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
	// through, then the member it ends at.
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
		use(member)
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
		for _, obj := range p.info.Uses {
			use(obj)
		}
		for _, s := range p.info.Selections {
			usePath(s.Recv(), s.Index(), s.Obj())
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
