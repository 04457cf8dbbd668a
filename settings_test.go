package tycoongrid_test

import (
	"fmt"
	"go/types"
	"sort"
	"testing"
)

// unsetWorldSettings is every exported field of box.Config and grid.HostSpec
// that no non-test Go file outside bench/ writes, or that no non-test file
// reads, with why it may stay.
var unsetWorldSettings = []struct {
	name, reason string
}{
	{"box.Config.CreateOverhead", timelineFixture},
	{"box.Config.StageInTime", timelineFixture},
	{"box.Config.StageOutTime", timelineFixture},
	{"box.Config.Churn", "test-only until ROADMAP item 8's churn cells"},
	{"box.Config.Shards", "bench-only (ROADMAP item 4)"},
}

const timelineFixture = "the timeline oracle's fixture (arc's TestTimelineMatchesSpanEventGolden scripted run)"

// TestEveryWorldSettingIsSetAndRead holds the world's settings to their
// callers: every exported field of box.Config and grid.HostSpec is written
// (modPkg.writes: a composite-literal key, an assignment target, or its
// address handed out, as to a flag) by some non-test Go file outside bench/,
// and read by some non-test Go file, or has a row in unsetWorldSettings. A
// setting nothing sets is a branch no run takes; one nothing reads does
// nothing. A row whose field is gone, or is now set and read, fails.
func TestEveryWorldSettingIsSetAndRead(t *testing.T) {
	m := loadModule(t)
	fields := map[types.Object]string{}
	for _, st := range []struct{ pkg, typ string }{{"box", "Config"}, {"grid", "HostSpec"}} {
		p, ok := m.pkgs[modulePath+"/internal/"+st.pkg]
		if !ok {
			t.Fatalf("package internal/%s not loaded", st.pkg)
		}
		s := p.types.Scope().Lookup(st.typ).Type().Underlying().(*types.Struct)
		for i := range s.NumFields() {
			if f := s.Field(i); f.Exported() {
				fields[f] = st.pkg + "." + st.typ + "." + f.Name()
			}
		}
	}

	written, read := map[types.Object]bool{}, map[types.Object]bool{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			if _, ok := fields[obj]; !ok {
				continue
			}
			switch {
			case !p.writes[id]:
				read[obj] = true
			case !p.bench:
				written[obj] = true
			}
		}
	}

	rows := map[string]bool{}
	for _, r := range unsetWorldSettings {
		rows[r.name] = true
	}
	var bad []string
	for obj, name := range fields {
		ok := written[obj] && read[obj]
		switch {
		case ok && rows[name]:
			bad = append(bad, name+" has a row in unsetWorldSettings but is set and read; delete the row")
		case !ok && !rows[name]:
			bad = append(bad, fmt.Sprintf("%s: set outside tests and bench/ %t, read outside tests %t; "+
				"give it a caller, delete it, or give it a row in unsetWorldSettings", name, written[obj], read[obj]))
		}
		delete(rows, name)
	}
	for name := range rows {
		bad = append(bad, name+" has a row in unsetWorldSettings but is not a field; delete the row")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
