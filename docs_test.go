package tycoongrid_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists keeps the prose from outliving the code: every
// `make <target>` the documents name is a rule in the Makefile, and every
// cmd/<name> directory or top-level *.json file they name exists. Deleting a
// target, a binary or an artifact without editing the documents fails here.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		rules[string(m[1])] = true
	}

	var (
		// A target is named in an inline code span, or by a command line of
		// a fenced block; "make sense" in running prose is neither.
		spanMake  = regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
		fenceMake = regexp.MustCompile(`^make ([a-z][a-z0-9-]*)`)
		cmdDir    = regexp.MustCompile(`\bcmd/[a-z]+`)
		// A bare file name in a code span is a path from the repository
		// root; after.json on a command line is the reader's own file.
		rootJSON = regexp.MustCompile("`[A-Za-z0-9_.-]+\\.json`")
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
			for _, p := range append(cmdDir.FindAllString(line, -1), rootJSON.FindAllString(line, -1)...) {
				p = strings.Trim(p, "`")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s:%d: names %s, which does not exist", doc, i+1, p)
				}
			}
		}
	}
}
