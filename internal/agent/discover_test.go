package agent

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/core"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/mechanism"
)

// oracleCandidates is how a submission found its candidates before discover
// read the awake set: every host of the partition asked for its capacity and
// its price excluding the bidder, the failed ones left out. It is the
// reference discover is held to.
func oracleCandidates(a *Agent, bidder auction.BidderID) []core.Host {
	var hosts []core.Host
	for _, h := range a.hosts {
		if h.Down() {
			continue
		}
		hosts = append(hosts, core.Host{ID: h.Spec.ID, Preference: h.Market.CapacityMHz(), Price: h.Market.PriceExcluding(bidder)})
	}
	return hosts
}

// discoverySpecs is a cluster whose canonical order is not its spec order
// ("n10" sorts before "n2") and whose capacities change in stretches of a few
// hosts, with lone hosts of their own capacity between them.
func discoverySpecs(n int) []grid.HostSpec {
	specs := make([]grid.HostSpec, n)
	for i := range specs {
		specs[i] = grid.HostSpec{ID: fmt.Sprintf("n%d", i), CPUs: 1 + i/5%3, CPUMHz: 2800, MaxVMs: 30}
		if i%11 == 4 {
			specs[i].CPUMHz = 3000
		}
	}
	return specs
}

// TestDiscoveryMatchesPerHostLoop is the differential test of discover: under
// every mechanism, with and without host churn, for an agent over the whole
// cluster and for two agents over interleaved partitions, a seeded schedule of
// submissions — often several with no tick between them, so that markets
// woken by one have not yet joined a sweep at the next — ticks, history reads
// that wake whole partitions, cancels, failures and recoveries. Before every
// submission discover lists exactly the oracle's candidates, as runs that
// keep the run contract; after it, the job's bids are those Best Response
// gives over the oracle's candidates, bit for bit, and its hosts theirs.
func TestDiscoveryMatchesPerHostLoop(t *testing.T) {
	for _, mech := range mechanism.Names() {
		for _, churn := range []bool{false, true} {
			for _, partitioned := range []bool{false, true} {
				name := fmt.Sprintf("%s/churn=%v/partitioned=%v", mech, churn, partitioned)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 2; seed++ {
						runDiscoverySchedule(t, mech, churn, partitioned, seed)
					}
				})
			}
		}
	}
}

func runDiscoverySchedule(t *testing.T, mech string, churn, partitioned bool, seed int64) {
	const hosts = 48
	w := newWorldClearing(t, discoverySpecs(hosts), mech)
	agents := []*Agent{w.agent}
	if partitioned {
		ids := w.cluster.HostIDs()
		rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		agents = nil
		for p := 0; p < 2; p++ {
			a, err := New(Config{Cluster: w.cluster, Bank: w.bank, Identity: w.agent.cfg.Identity,
				Account: "broker", Verifier: w.agent.cfg.Verifier, Hosts: ids[p*hosts/2 : (p+1)*hosts/2],
				JobIDPrefix: fmt.Sprintf("p%d", p)})
			if err != nil {
				t.Fatal(err)
			}
			agents = append(agents, a)
		}
	}
	src := rand.New(rand.NewSource(seed))
	interval := w.cluster.Interval()
	w.eng.RunFor(3 * interval) // every market clears once and sleeps
	down := map[string]bool{}
	submissions, woken := 0, 0
	for step := 0; step < 150; step++ {
		switch k := src.Intn(10); {
		case k < 4: // a burst of submissions, no tick between them
			for n := 1 + src.Intn(4); n > 0; n-- {
				a := agents[src.Intn(len(agents))]
				woken += len(w.cluster.AppendAwake(nil))
				checkSubmission(t, w, a, src, fmt.Sprintf("seed %d step %d", seed, step))
				submissions++
			}
		case k == 4:
			agents[src.Intn(len(agents))].PriceHistory(8) // wakes the partition
		case k == 5:
			a := agents[src.Intn(len(agents))]
			if n := len(a.running); n > 0 {
				if err := a.Cancel(a.running[src.Intn(n)].ID); err != nil {
					t.Fatal(err)
				}
			}
		case k == 6 && churn:
			ids := w.cluster.HostIDs()
			if h := ids[src.Intn(len(ids))]; !down[h] && len(down) < hosts/4 {
				down[h] = true
				if _, err := w.cluster.FailHost(h); err != nil {
					t.Fatal(err)
				}
			}
		case k == 7 && churn:
			for _, h := range w.cluster.HostIDs() {
				if down[h] && src.Intn(2) == 0 {
					delete(down, h)
					if err := w.cluster.RecoverHost(h); err != nil {
						t.Fatal(err)
					}
				}
			}
		default:
			w.eng.RunFor(time.Duration(1+src.Intn(30)) * interval)
		}
	}
	if submissions < 50 || woken == 0 {
		t.Fatalf("seed %d: %d submissions, %d awake hosts seen at them: the schedule does not exercise discovery", seed, submissions, woken)
	}
}

// checkSubmission submits one job through a and holds it to the oracle.
func checkSubmission(t *testing.T, w *world, a *Agent, src *rand.Rand, what string) {
	t.Helper()
	// The job's bidder is a fresh sub-account that bids nowhere yet, so every
	// market prices it as it prices any bidder it does not know.
	const stranger = auction.BidderID("nobody")
	want := oracleCandidates(a, stranger)
	got, all := expandRuns(t, what, a.discover(stranger)), sortedByID(want)
	for i := 0; i < max(len(got), len(all)); i++ {
		if i >= len(got) || i >= len(all) || got[i] != all[i] {
			t.Fatalf("%s: discover lists %d candidates, the per-host loop %d; the first that differ: %v and %v",
				what, len(got), len(all), got[i:min(i+1, len(got))], all[i:min(i+1, len(all))])
		}
	}

	credits := float64(5 + src.Intn(60))
	count := 1 + src.Intn(8)
	deadline := time.Duration(1+src.Intn(4)) * time.Hour
	job, err := a.Submit(w.payToken(t, credits), request(count, deadline), chunks(1+src.Intn(6), float64(5+src.Intn(30))))
	if job == nil {
		t.Fatalf("%s: %v", what, err)
	}
	horizon := job.Deadline.Sub(job.Submitted).Seconds()
	allocs, oracleErr := core.BestResponseCapped(job.Budget.Credits()/horizon, want, count)
	if err != nil {
		if oracleErr == nil && len(expectedBids(allocs, horizon, job.Budget)) > 0 {
			t.Fatalf("%s: submission failed (%v), the oracle's candidates fund %d hosts", what, err, len(allocs))
		}
		return
	}
	if oracleErr != nil {
		t.Fatalf("%s: submitted, but Best Response over the oracle's candidates says %v", what, oracleErr)
	}
	bids := expectedBids(allocs, horizon, job.Budget)
	if len(job.Bids) != len(bids) {
		t.Fatalf("%s: %d bids, the oracle's %d", what, len(job.Bids), len(bids))
	}
	hosts := make([]string, len(bids))
	for i, b := range bids {
		g := job.Bids[i]
		if g.Host != b.Host || g.Amount != b.Amount || math.Float64bits(g.Price) != math.Float64bits(b.Price) {
			t.Fatalf("%s: bid %d is %+v, the oracle's %+v", what, i, g, b)
		}
		hosts[i] = b.Host
	}
	slices.Sort(hosts)
	if !slices.Equal(job.Hosts, hosts) {
		t.Fatalf("%s: job hosts %v, the oracle's %v", what, job.Hosts, hosts)
	}
}

// expectedBids turns allocations into the bids placeBids places: each
// rounded to the microcredit, never past the budget.
func expectedBids(allocs []core.Allocation, horizon float64, budget bank.Amount) []Bid {
	var bids []Bid
	var allocated bank.Amount
	for _, al := range allocs {
		amount, err := bank.FromCredits(al.Bid * horizon)
		if err != nil || amount <= 0 {
			continue
		}
		if allocated+amount > budget {
			amount = budget - allocated
		}
		if amount <= 0 {
			break
		}
		allocated += amount
		bids = append(bids, Bid{Host: al.Host.ID, Amount: amount, Price: al.Host.Price})
	}
	return bids
}

// expandRuns lists the members of runs one host each, ascending by ID, and
// fails unless the runs keep the contract: IDs strictly ascending within a
// run, and none in two runs.
func expandRuns(t *testing.T, what string, runs []core.Run) []core.Host {
	t.Helper()
	var hosts []core.Host
	for _, r := range runs {
		for m, id := range r.IDs {
			if m > 0 && r.IDs[m-1] >= id {
				t.Fatalf("%s: run %v does not ascend", what, r.IDs)
			}
			hosts = append(hosts, core.Host{ID: id, Preference: r.Preference, Price: r.Price})
		}
	}
	hosts = sortedByID(hosts)
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1].ID == hosts[i].ID {
			t.Fatalf("%s: %s is in two runs", what, hosts[i].ID)
		}
	}
	return hosts
}

func sortedByID(hosts []core.Host) []core.Host {
	out := slices.Clone(hosts)
	slices.SortFunc(out, func(a, b core.Host) int { return strings.Compare(a.ID, b.ID) })
	return out
}
