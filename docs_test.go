package tycoongrid_test

import (
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
// no registration names is a deleted one.
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
}
