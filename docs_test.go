package tycoongrid_test

import (
	"go/types"
	"os"
	"regexp"
	"strings"
	"testing"

	"tycoongrid/internal/experiment"
)

// TestDocsNameOnlyWhatExists keeps the prose from outliving the code: every
// `make <target>` the documents name is a rule in the Makefile, every
// cmd/<name> directory, `internal/<pkg>` package or top-level *.json file
// they name exists, and every `marketbench -run <name>` is an entry of
// experiment.Catalog(), the list marketbench itself loops over. Deleting a
// target, a binary, a package, an artifact or an experiment without editing
// the documents fails here. And the other way round for packages and
// experiments: every directory under internal/ has a row in the module map,
// DESIGN.md §3, and every catalog entry a `-run <name>` in the experiment
// index, DESIGN.md §4. And every metric family README.md or the verify
// skill names in a code span is registered (TestEveryMetricHasAReader's
// scan): a family of a registered family's namespace (bank_, wal_, ...) that
// no registration names is a deleted one. And every pkg.Name or
// pkg.Type.Member that README.md, DESIGN.md or PAPER.md names in a code span,
// pkg being a package under internal/, is declared by that package's non-test
// code (TestEveryExportedNameHasACaller's type-checked load); EXPERIMENTS.md
// is a dated record and keeps the names it was written with. And PAPER.md's
// copy of the substitutions table is DESIGN.md §2's: each of its rows appears
// there verbatim, so the two cannot drift.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		rules[string(m[1])] = true
	}

	// "all" is the -run flag's default.
	experiments := map[string]bool{"all": true}
	for _, e := range experiment.Catalog() {
		experiments[e.Name] = true
	}

	metrics := registeredMetrics(t)
	namespaces := map[string]bool{}
	for name := range metrics {
		ns, _, _ := strings.Cut(name, "_")
		namespaces[ns] = true
	}
	// Words of a metric's namespace that are not metrics: a receipt's
	// JSON field.
	notMetrics := map[string]bool{"bank_sig": true}

	var (
		// A target is named in an inline code span, or by a command line of
		// a fenced block; "make sense" in running prose is neither.
		spanMake  = regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
		fenceMake = regexp.MustCompile(`^make ([a-z][a-z0-9-]*)`)
		cmdDir    = regexp.MustCompile(`\bcmd/[a-z]+`)
		pkgDir    = regexp.MustCompile("`(internal/[a-z]+)")
		// A bare file name in a code span is a path from the repository
		// root; after.json on a command line is the reader's own file.
		rootJSON = regexp.MustCompile("`[A-Za-z0-9_.-]+\\.json`")
		// An experiment is named after -run, in a code span or on a fenced
		// command line; `go test -run` selects tests instead.
		codeSpan = regexp.MustCompile("`[^`]+`")
		runFlag  = regexp.MustCompile(`(?:^|[^a-z])-run ([a-z][a-z0-9-]*)`)
		family   = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])(([a-z][a-z0-9]*)_[a-z0-9_]*[a-z0-9])`)
	)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			targets := spanMake.FindAllStringSubmatch(line, -1)
			if m := fenceMake.FindStringSubmatch(line); inFence && m != nil {
				targets = append(targets, m)
			}
			for _, m := range targets {
				if !rules[m[1]] {
					t.Errorf("%s:%d: `make %s` is not a rule in the Makefile", doc, i+1, m[1])
				}
			}
			commands := codeSpan.FindAllString(line, -1)
			if !inFence && (doc == "README.md" || strings.HasPrefix(doc, ".claude/")) {
				for _, span := range commands {
					for _, m := range family.FindAllStringSubmatch(span, -1) {
						if _, ok := metrics[m[1]]; namespaces[m[2]] && !ok && !notMetrics[m[1]] {
							t.Errorf("%s:%d: names metric %s, which is not registered", doc, i+1, m[1])
						}
					}
				}
			}
			if inFence {
				commands = []string{line}
			}
			for _, c := range commands {
				if strings.Contains(c, "go test") {
					continue
				}
				for _, m := range runFlag.FindAllStringSubmatch(c, -1) {
					if !experiments[m[1]] {
						t.Errorf("%s:%d: experiment %q is not in experiment.Catalog()", doc, i+1, m[1])
					}
				}
			}
			paths := append(cmdDir.FindAllString(line, -1), rootJSON.FindAllString(line, -1)...)
			for _, m := range pkgDir.FindAllStringSubmatch(line, -1) {
				paths = append(paths, m[1])
			}
			for _, p := range paths {
				p = strings.Trim(p, "`")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s:%d: names %s, which does not exist", doc, i+1, p)
				}
			}
		}
	}

	internal := map[string]*types.Package{}
	for path, p := range loadModule(t).pkgs {
		if strings.HasPrefix(path, modulePath+"/internal/") {
			internal[p.types.Name()] = p.types
		}
	}
	// A selector chain starts a span or follows a non-identifier character,
	// so h.VMs.Live() and cmd/x.Y are not read as package selectors.
	selector := regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Z][A-Za-z0-9_]*))?`)
	for _, doc := range []string{"README.md", "DESIGN.md", "PAPER.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range selector.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
					pkg, ok := internal[m[1]]
					if !ok {
						continue
					}
					obj := pkg.Scope().Lookup(m[2])
					if obj == nil {
						t.Errorf("%s:%d: names %s.%s, which internal/%s does not declare", doc, i+1, m[1], m[2], m[1])
						continue
					}
					switch obj.(type) {
					case *types.TypeName, *types.Var: // a function or constant has no members
						if member, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, m[3]); m[3] != "" && member == nil {
							t.Errorf("%s:%d: names %s.%s.%s, which internal/%s does not declare", doc, i+1, m[1], m[2], m[3], m[1])
						}
					}
				}
			}
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	inventory := regexp.MustCompile(`(?s)\n## 3\. .*?\n## 4\. `).Find(design)
	index := regexp.MustCompile(`(?s)\n## 4\. .*?\n## 5\. `).Find(design)
	if inventory == nil || index == nil {
		t.Fatal("DESIGN.md: no sections 3, 4 and 5 in a row")
	}
	for _, e := range experiment.Catalog() {
		if !strings.Contains(string(index), "-run "+e.Name+"`") {
			t.Errorf("DESIGN.md §4: experiment %s has no `-run %s` in the index", e.Name, e.Name)
		}
	}
	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range pkgs {
		if d.IsDir() && !strings.Contains(string(inventory), "\n| `internal/"+d.Name()+"` |") {
			t.Errorf("DESIGN.md §3: internal/%s has no row in the module map", d.Name())
		}
	}

	paper, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	substitutions := regexp.MustCompile(`(?s)\n## 2\. .*?\n## 3\. `)
	designTable, paperTable := substitutions.Find(design), substitutions.Find(paper)
	if designTable == nil || paperTable == nil {
		t.Fatal("DESIGN.md or PAPER.md: no sections 2 and 3 in a row")
	}
	rows := 0
	for _, line := range strings.Split(string(paperTable), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		rows++
		if !strings.Contains(string(designTable), "\n"+line+"\n") {
			t.Errorf("PAPER.md §2: row %q is not in DESIGN.md §2; copy DESIGN.md's", line)
		}
	}
	if rows == 0 {
		t.Error("PAPER.md §2 holds no substitutions table")
	}
}
