package agent

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/marketplane"
	"tycoongrid/internal/mechanism"
)

// oracleBook is one job's books as oracleSettle keeps them.
type oracleBook struct {
	charged bank.Amount
	tab     []HostCharge // ascending by host
}

// oracleSettle is how a tick's charges were booked before settle kept a memo:
// every charge of every cleared host, the partition's or not, looked up in
// byBidder, and its host's row found by scanning the job's tab. It books into
// books, not onto the jobs, so it runs beside the agent in one world.
func oracleSettle(a *Agent, cleared []marketplane.TickResult, books map[*Job]*oracleBook) {
	for i := range cleared {
		r := &cleared[i]
		for _, ch := range r.Charges {
			job, ok := a.byBidder[ch.Bidder]
			if !ok {
				continue
			}
			b := books[job]
			if b == nil {
				b = &oracleBook{}
				books[job] = b
			}
			b.charged += ch.Amount
			found := false
			for k := range b.tab {
				if b.tab[k].Host == r.Host {
					b.tab[k].Charged += ch.Amount
					found = true
					break
				}
			}
			if !found {
				at, _ := slices.BinarySearchFunc(b.tab, r.Host, func(hc HostCharge, h string) int { return strings.Compare(hc.Host, h) })
				b.tab = slices.Insert(b.tab, at, HostCharge{Host: r.Host, Charged: ch.Amount})
			}
		}
	}
}

// TestSettleMatchesMapAndScan is the differential test of settle's memo:
// under every mechanism, with and without host churn, for one agent over the
// whole cluster and for two agents over interleaved partitions beside it, a
// seeded schedule of submissions (many with budgets or deadlines their bids
// outrun, so bids expire and the charges after them move up a place),
// boosts, cancels, failures and recoveries runs tick by tick. After every tick
// every job's Charged and ChargedByHost equal what oracleSettle booked from
// the same charges, and the schedule is shown to have moved charges up.
func TestSettleMatchesMapAndScan(t *testing.T) {
	for _, mech := range mechanism.Names() {
		for _, churn := range []bool{false, true} {
			for _, partitioned := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/churn=%v/partitioned=%v", mech, churn, partitioned), func(t *testing.T) {
					for seed := int64(1); seed <= 2; seed++ {
						runSettleSchedule(t, mech, churn, partitioned, seed)
					}
				})
			}
		}
	}
}

func runSettleSchedule(t *testing.T, mech string, churn, partitioned bool, seed int64) {
	const hosts = 12
	w := newWorldClearing(t, discoverySpecs(hosts), mech)
	all := []*Agent{w.agent}
	if partitioned {
		ids := w.cluster.HostIDs()
		rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for p := 0; p < 2; p++ {
			a, err := New(Config{Cluster: w.cluster, Bank: w.bank, Identity: w.agent.cfg.Identity,
				Account: "broker", Verifier: w.agent.cfg.Verifier, Hosts: ids[p*hosts/2 : (p+1)*hosts/2],
				JobIDPrefix: fmt.Sprintf("p%d", p)})
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, a)
		}
	}
	submitters := all
	if partitioned {
		submitters = all[1:]
	}

	books := map[*Job]*oracleBook{}
	last := map[string][]auction.BidderID{} // each host's bidders at its last charge, in order
	movedUp := 0                            // charges made at an earlier place than the bidder's last
	settle := w.cluster.OnSettle
	w.cluster.OnSettle = func(cleared []marketplane.TickResult) {
		settle(cleared)
		for _, a := range all {
			oracleSettle(a, cleared, books)
		}
		for _, r := range cleared {
			was := last[r.Host]
			for k, ch := range r.Charges {
				if at := slices.Index(was, ch.Bidder); at > k {
					movedUp++
				}
			}
			if len(r.Charges) > 0 {
				last[r.Host] = last[r.Host][:0]
				for _, ch := range r.Charges {
					last[r.Host] = append(last[r.Host], ch.Bidder)
				}
			}
		}
	}
	check := func(what string) {
		t.Helper()
		for _, a := range all {
			for _, job := range a.Jobs() {
				var want oracleBook
				if b := books[job]; b != nil {
					want = *b
				}
				if got := job.ChargedByHost(); job.Charged != want.charged || !slices.Equal(got, want.tab) {
					t.Fatalf("seed %d, %s: %s charged %v by host %v; the map-and-scan loop booked %v by host %v",
						seed, what, job.ID, job.Charged, got, want.charged, want.tab)
				}
			}
		}
	}

	src := rand.New(rand.NewSource(seed))
	interval := w.cluster.Interval()
	down := map[string]bool{}
	pickRunning := func() (*Agent, string) {
		a := submitters[src.Intn(len(submitters))]
		if n := len(a.running); n > 0 {
			return a, a.running[src.Intn(n)].ID
		}
		return a, ""
	}
	for step := 0; step < 120; step++ {
		switch k := src.Intn(10); {
		case k < 3: // submit; half of them outrun by their own bids
			a := submitters[src.Intn(len(submitters))]
			credits := float64(5 + src.Intn(60))
			count, n, minutes := 1+src.Intn(6), 1+src.Intn(6), float64(5+src.Intn(30))
			deadline := time.Duration(2+src.Intn(4)) * time.Hour
			if src.Intn(2) == 0 {
				minutes, deadline = 60, time.Duration(1+src.Intn(8))*time.Minute
			}
			_, _ = a.Submit(w.payToken(t, credits), request(count, deadline), chunks(n, minutes))
		case k == 3:
			if a, id := pickRunning(); id != "" {
				_ = a.Boost(id, w.payToken(t, float64(1+src.Intn(20))))
			}
		case k == 4:
			if a, id := pickRunning(); id != "" && src.Intn(2) == 0 {
				if err := a.Cancel(id); err != nil {
					t.Fatal(err)
				}
			}
		case k == 5 && churn:
			ids := w.cluster.HostIDs()
			if h := ids[src.Intn(len(ids))]; !down[h] && len(down) < hosts/4 {
				down[h] = true
				if _, err := w.cluster.FailHost(h); err != nil {
					t.Fatal(err)
				}
			}
		case k == 6 && churn:
			for _, h := range w.cluster.HostIDs() {
				if down[h] && src.Intn(2) == 0 {
					delete(down, h)
					if err := w.cluster.RecoverHost(h); err != nil {
						t.Fatal(err)
					}
				}
			}
		default:
			for n := 1 + src.Intn(12); n > 0; n-- {
				w.eng.RunFor(interval)
				check(fmt.Sprintf("step %d", step))
			}
		}
	}
	if movedUp == 0 || len(books) < 20 {
		t.Fatalf("seed %d: %d jobs charged, %d charges moved up: the schedule does not move the memo's rows", seed, len(books), movedUp)
	}
}
