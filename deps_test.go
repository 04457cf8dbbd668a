package tycoongrid_test

import (
	"go/types"
	"strings"
	"testing"
)

// TestDaemonsLinkWhatTheyServe holds each daemon to the internal packages of
// what it serves (ROADMAP item 18). The bank, the SLS and the fleet monitor
// link none of the simulated grid, the auction or the predictors; the
// auctioneer links its market but none of the grid. A failure names the
// import chain that reached the package.
func TestDaemonsLinkWhatTheyServe(t *testing.T) {
	grid := []string{"arc", "agent", "grid", "strategy", "marketplane", "box", "token", "xrsl", "workload", "vm"}
	market := append([]string{"predict", "auction", "portfolio"}, grid...)
	m := loadModule(t)
	for daemon, banned := range map[string][]string{
		"bankd": market, "slsd": market, "gridtop": market, "auctioneerd": grid,
	} {
		root := m.pkgs[modulePath+"/cmd/"+daemon]
		if root == nil {
			t.Errorf("no package cmd/%s", daemon)
			continue
		}
		// via maps each reached package to the package that imported it.
		via := map[string]string{}
		var walk func(*types.Package)
		walk = func(p *types.Package) {
			for _, imp := range p.Imports() {
				if _, ok := via[imp.Path()]; !ok {
					via[imp.Path()] = p.Path()
					walk(imp)
				}
			}
		}
		walk(root.types)
		for _, name := range banned {
			path := modulePath + "/internal/" + name
			if _, ok := via[path]; !ok {
				continue
			}
			chain := []string{path}
			for p := path; p != root.types.Path(); p = via[p] {
				chain = append([]string{via[p]}, chain...)
			}
			t.Errorf("%s links internal/%s: %s", daemon, name, strings.Join(chain, " -> "))
		}
	}
}
