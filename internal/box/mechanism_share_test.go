package box

import (
	"fmt"
	"math"
	"testing"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
)

// TestBestResponseShareUnderEachMechanism measures, per clearing rule, how far
// the share Best Response expected on each host a job funds — Rate/(Rate+Price),
// Price being the other bids' rate sum it discovered — is from the share the
// next clear gave. Bob's job holds a bid on every host first and carol's on
// half of them, so each funded host has other bids. Under proportional share
// the two agree to within a microcredit of the host's budget: that rule is
// the one Best Response models. Under the other rules the agent asks each
// market what its bid would win before it funds it, so no funded host clears
// the job at share 0; their gaps are only logged. Under posted-price alice's
// bids used to be the lowest on every host and all eight cleared at 0.
func TestBestResponseShareUnderEachMechanism(t *testing.T) {
	for _, mech := range []string{mechanism.Proportional, mechanism.PostedPrice, mechanism.VCG} {
		t.Run(mech, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mechanism, cfg.Seed = mech, 1
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			submit := func(user string, count int, budget bank.Amount) *arc.GridJob {
				t.Helper()
				_, mint := fund(t, b, user, 1000*bank.Credit)
				gj, err := b.Manager.Submit(fmt.Sprintf(
					"&(executable=x)(count=%d)(cputime=600)(walltime=120)(transfertoken=%s)", count, mint(budget)), nil)
				if err != nil {
					t.Fatal(err)
				}
				return gj
			}
			submit("bob", cfg.Hosts, 80*bank.Credit)
			submit("carol", cfg.Hosts/2, 30*bank.Credit)
			b.Engine.RunFor(30 * time.Second)

			gj := submit("alice", cfg.Hosts, 60*bank.Credit)
			b.Engine.RunFor(time.Second)
			job := gj.AgentJob
			if job == nil || len(job.Bids) == 0 {
				t.Fatalf("alice's job placed no bids: %+v (%s)", gj.State, gj.Error)
			}
			horizon := job.Deadline.Sub(b.Engine.Now()).Seconds()
			b.Engine.RunFor(b.Cluster.Interval()) // the next clear

			for _, bid := range job.Bids {
				h, err := b.Cluster.Host(bid.Host)
				if err != nil {
					t.Fatal(err)
				}
				got, others := math.NaN(), 0
				for _, s := range h.Market.Shares() {
					if string(s.Bidder) == string(job.SubAccount) {
						got = s.Fraction
					} else {
						others++
					}
				}
				if math.IsNaN(got) || others == 0 {
					t.Fatalf("%s: share %v among %d other bids, want the job's share and another's", bid.Host, got, others)
				}
				want := bid.Rate / (bid.Rate + bid.Price)
				t.Logf("%s: expected %.6f, cleared %.6f, gap %+.6f (rate %.6g, price %.6g, %d other bids)",
					bid.Host, want, got, got-want, bid.Rate, bid.Price, others)
				if mech != mechanism.Proportional {
					if got == 0 {
						t.Errorf("%s: funded at rate %v and cleared at share 0", bid.Host, bid.Rate)
					}
					continue
				}
				// A microcredit of the host's budget moves the rate by
				// 1e-6/horizon and the share by at most that over the
				// price.
				if tol := 1e-6 / horizon / bid.Price; math.Abs(got-want) > tol {
					t.Errorf("%s: share %v, Best Response expected %v (tolerance %v)", bid.Host, got, want, tol)
				}
			}
		})
	}
}

// TestConcentrationKeepsMinHosts: Best Response never concentrates a job
// below the hosts its request must be funded on. Alice's job of
// TestBestResponseShareUnderEachMechanism, asking under posted-price for all
// 8 hosts with minhosts=8, keeps all 8 bids and waits to be admitted, where
// one host fewer would have had the job held back.
func TestConcentrationKeepsMinHosts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism, cfg.Seed = mechanism.PostedPrice, 1
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(user string, count int, extra string, budget bank.Amount) (*arc.GridJob, error) {
		_, mint := fund(t, b, user, 1000*bank.Credit)
		return b.Manager.Submit(fmt.Sprintf(
			"&(executable=x)(count=%d)%s(cputime=600)(walltime=120)(transfertoken=%s)", count, extra, mint(budget)), nil)
	}
	for _, s := range []struct {
		user   string
		count  int
		budget bank.Amount
	}{{"bob", cfg.Hosts, 80 * bank.Credit}, {"carol", cfg.Hosts / 2, 30 * bank.Credit}} {
		if _, err := submit(s.user, s.count, "", s.budget); err != nil {
			t.Fatal(err)
		}
	}
	b.Engine.RunFor(30 * time.Second)

	gj, err := submit("alice", cfg.Hosts, fmt.Sprintf("(minhosts=%d)", cfg.Hosts), 60*bank.Credit)
	if err != nil {
		t.Fatal(err)
	}
	b.Engine.RunFor(time.Second)
	if job := gj.AgentJob; job == nil || len(job.Hosts) != cfg.Hosts {
		t.Fatalf("alice's job is %s (%s), want it funded on all %d hosts", gj.State, gj.Error, cfg.Hosts)
	}
}
