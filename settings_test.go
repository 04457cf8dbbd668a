package tycoongrid_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// unsetSettings is every exported field of a settings struct (see
// TestEverySettingIsSetAndRead) that no non-test Go file outside bench/
// writes, or that no non-test file reads, with why it may stay.
var unsetSettings = []struct {
	name, reason string
}{
	{"box.Config.CreateOverhead", timelineFixture},
	{"box.Config.StageInTime", timelineFixture},
	{"box.Config.StageOutTime", timelineFixture},
	{"box.Config.Churn", "test-only until ROADMAP item 8's churn cells"},
	{"box.Config.Shards", "bench-only: bench/grid.go writes 1, box.New refuses more (ROADMAP item 4)"},

	{"auction.Config.Tracer", benchOnly},
	{"marketplane.Config.Shards", "bench-only: plane-burst runs two shards (ROADMAP item 4)"},
	{"strategy.Config.Predictor", "bench-only: broker-predict's replay names the batch model"},

	{"fault.TransportConfig.FailureRate", testDouble},
	{"fault.TransportConfig.MaxLatency", testDouble},
	{"fault.TransportConfig.Seed", testDouble},
	{"fault.TransportConfig.ServerErrorRate", testDouble},

	{"telemetry.Config.Registry", testSeam},
	{"telemetry.Config.Now", testSeam},
	{"telemetry.Config.Objectives", testSeam},
	{"telemetry.AggregatorConfig.Client", testSeam},
	{"telemetry.AggregatorConfig.Registry", testSeam},
	{"telemetry.AggregatorConfig.Now", testSeam},
}

const (
	timelineFixture = "the timeline oracle's fixture (arc's TestTimelineMatchesSpanEventGolden scripted run)"
	testSeam        = "test seam: a test swaps in a private registry, clock, client or objective set"
)

// settingSuffixes name a settings struct: an exported struct type under
// internal/ whose name is, or ends in, one of them. An experiment's *Params
// declares the experiment and is not one.
var settingSuffixes = []string{"Config", "Options", "Spec"}

// TestEverySettingIsSetAndRead holds every setting to its callers: each
// exported field of a settings struct is written (modPkg.writes: a
// composite-literal key, an assignment target, or its address handed out, as
// to a flag) by some non-test Go file outside bench/, other than in a method
// of the struct itself (withDefaults filling a default sets nothing), and
// read by some non-test Go file, or has a row in unsetSettings. A setting
// nothing sets is a branch no run takes, and one value in use is a constant;
// one nothing reads does nothing. A row whose field is gone, or is now set
// and read, fails.
func TestEverySettingIsSetAndRead(t *testing.T) {
	m := loadModule(t)
	fields := map[types.Object]string{}         // field -> pkg.Type.Field
	owner := map[types.Object]*types.TypeName{} // field -> its settings struct
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !isSettingsName(name) {
				continue
			}
			s, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range s.NumFields() {
				if f := s.Field(i); f.Exported() {
					fields[f] = p.types.Name() + "." + name + "." + f.Name()
					owner[f] = tn
				}
			}
		}
	}

	written, read := map[types.Object]bool{}, map[types.Object]bool{}
	for _, p := range m.pkgs {
		methods := p.methodSpans()
		for id, obj := range p.info.Uses {
			if _, ok := fields[obj]; !ok {
				continue
			}
			switch {
			case !p.writes[id]:
				read[obj] = true
			case !p.bench && methods.receiverAt(id.Pos()) != owner[obj]:
				written[obj] = true
			}
		}
	}

	rows := map[string]bool{}
	for _, r := range unsetSettings {
		if rows[r.name] {
			t.Errorf("%s has two rows", r.name)
		}
		rows[r.name] = true
	}
	var bad []string
	for obj, name := range fields {
		ok := written[obj] && read[obj]
		switch {
		case ok && rows[name]:
			bad = append(bad, name+" has a row in unsetSettings but is set and read; delete the row")
		case !ok && !rows[name]:
			bad = append(bad, fmt.Sprintf("%s: set outside tests, bench/ and its own methods %t, read outside tests %t; "+
				"give it a caller, delete it, or give it a row in unsetSettings", name, written[obj], read[obj]))
		}
		delete(rows, name)
	}
	for name := range rows {
		bad = append(bad, name+" has a row in unsetSettings but is not a settings field; delete the row")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

func isSettingsName(name string) bool {
	for _, s := range settingSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// methodSpans is where each method of a package's files sits, with the named
// type its receiver has.
type methodSpans []struct {
	pos, end token.Pos
	recv     *types.TypeName
}

func (p *modPkg) methodSpans() methodSpans {
	var spans methodSpans
	for _, f := range p.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			// T, *T, T[P] and *T[P] all name T.
			e := fd.Recv.List[0].Type
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			}
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			if tn, ok := p.info.Uses[id].(*types.TypeName); ok {
				spans = append(spans, struct {
					pos, end token.Pos
					recv     *types.TypeName
				}{fd.Pos(), fd.End(), tn})
			}
		}
	}
	return spans
}

// receiverAt returns the receiver type of the method pos lies in, or nil.
func (s methodSpans) receiverAt(pos token.Pos) *types.TypeName {
	for _, m := range s {
		if m.pos <= pos && pos < m.end {
			return m.recv
		}
	}
	return nil
}
