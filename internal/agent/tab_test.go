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
	"tycoongrid/internal/grid"
	"tycoongrid/internal/marketplane"
	"tycoongrid/internal/mechanism"
)

// tabPair is two identical worlds driven by one op schedule. tab is the build
// under test: charges sit on the jobs' tabs until teardown banks them. every
// is the oracle: after each tick's settle, before any OnDone, it banks every
// running job's tab with the function teardown uses — which is what the agent
// did before the tab existed (one bank move per charge per tick), with a
// tick's legs grouped by job.
type tabPair struct {
	t          *testing.T
	tab, every *world
}

func newTabPair(t *testing.T, mech string) *tabPair {
	specs := make([]grid.HostSpec, 6)
	for i := range specs {
		specs[i] = grid.HostSpec{ID: fmt.Sprintf("h%02d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
	}
	p := &tabPair{t: t, tab: newWorldClearing(t, specs, mech), every: newWorldClearing(t, specs, mech)}
	a := p.every.agent
	settle := p.every.cluster.OnSettle
	p.every.cluster.OnSettle = func(cleared []marketplane.TickResult) {
		settle(cleared)
		for _, job := range a.running {
			a.bankTab(job)
		}
	}
	return p
}

// both applies one op to the two worlds and requires the same outcome.
func (p *tabPair) both(what string, op func(w *world) error) {
	p.t.Helper()
	errTab, errEvery := op(p.tab), op(p.every)
	if (errTab == nil) != (errEvery == nil) {
		p.t.Fatalf("%s: tab world says %v, banking every tick says %v", what, errTab, errEvery)
	}
	p.compare(what)
}

func balance(w *world, id bank.AccountID) bank.Amount {
	bal, err := w.bank.Balance(id)
	if err != nil {
		panic(err)
	}
	return bal
}

// compare holds the two worlds against each other between ops: the same jobs
// in the same states, charged the same, and the same money everywhere once
// the tabs are netted out.
func (p *tabPair) compare(what string) {
	p.t.Helper()
	t := p.t
	jobs, twins := p.tab.agent.Jobs(), p.every.agent.Jobs()
	if len(jobs) != len(twins) {
		t.Fatalf("after %s: %d jobs, twin has %d", what, len(jobs), len(twins))
	}
	var tabs bank.Amount
	for i, job := range jobs {
		twin := twins[i]
		if job.ID != twin.ID || job.State != twin.State || job.Charged != twin.Charged || !slices.Equal(job.Hosts, twin.Hosts) {
			t.Fatalf("after %s: %s is %v on %v charged %v; twin %s is %v on %v charged %v", what,
				job.ID, job.State, job.Hosts, job.Charged, twin.ID, twin.State, twin.Hosts, twin.Charged)
		}
		if !slices.Equal(job.ChargedByHost(), twin.ChargedByHost()) {
			t.Fatalf("after %s: %s charged by host %v, twin %v", what, job.ID, job.ChargedByHost(), twin.ChargedByHost())
		}
		if owed := twin.unbanked(); owed != 0 {
			t.Fatalf("after %s: the twin left %v of %s unbanked: it is not banking every tick", what, owed, twin.ID)
		}
		if job.State != StateRunning && job.unbanked() != 0 {
			t.Fatalf("after %s: %s is %v with %v still on its tab", what, job.ID, job.State, job.unbanked())
		}
		tabs += job.unbanked()
		if got, want := balance(p.tab, job.SubAccount)-job.unbanked(), balance(p.every, twin.SubAccount); got != want {
			t.Fatalf("after %s: %s escrow net of tab %v, twin's sub-account %v", what, job.ID, got, want)
		}
		// The timeline's escrow is the budget net of the charges: while the
		// job runs, that is what the twin's bank holds for it.
		if got, want := job.Budget-job.Charged, balance(p.every, twin.SubAccount); job.State == StateRunning && got != want {
			t.Fatalf("after %s: %s timeline escrow %v, twin's sub-account %v", what, job.ID, got, want)
		}
	}
	if got, want := balance(p.tab, "grid-earnings")+tabs, balance(p.every, "grid-earnings"); got != want {
		t.Fatalf("after %s: earnings + tabs = %v, twin's earnings %v", what, got, want)
	}
	if got, want := balance(p.tab, "broker"), balance(p.every, "broker"); got != want {
		t.Fatalf("after %s: broker holds %v, twin's %v", what, got, want)
	}
}

// entry is a ledger entry less its sequence number (the twin's ledger is
// longer, so the numbers differ).
type entry struct {
	from, to bank.AccountID
	amount   bank.Amount
	memo     string
	at       time.Time
}

func refunds(w *world) []entry {
	var out []entry
	for _, e := range w.bank.History("broker") {
		if e.Kind == bank.EntryRefund {
			out = append(out, entry{e.From, e.To, e.Amount, e.Memo, e.At})
		}
	}
	return out
}

// charges sums the charge entries per (sub-account, memo) — per (job, host) —
// and counts them.
func charges(w *world) (sum map[[2]string]bank.Amount, count map[[2]string]int) {
	sum, count = map[[2]string]bank.Amount{}, map[[2]string]int{}
	for _, e := range w.bank.History("grid-earnings") {
		if e.Kind != bank.EntryCharge {
			continue
		}
		k := [2]string{string(e.From), e.Memo}
		sum[k] += e.Amount
		count[k]++
	}
	return sum, count
}

// TestTabMatchesBankingEveryTick is the differential oracle for the tab: a
// seeded schedule of submissions (some with deadlines they cannot meet),
// boosts, cancels, host failures and recoveries, and runs of ticks goes
// through a world that books charges on tabs and a twin that banks them every
// tick. Between any two ops the worlds differ by exactly the tabs; once every
// job has ended they do not differ at all, except that the ledger holds one
// charge entry per (job, host) where the twin's holds one per tick.
func TestTabMatchesBankingEveryTick(t *testing.T) {
	for _, mech := range mechanism.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mech, seed), func(t *testing.T) {
				runTabSchedule(t, mech, seed)
			})
		}
	}
}

func runTabSchedule(t *testing.T, mech string, seed int64) {
	p := newTabPair(t, mech)
	src := rand.New(rand.NewSource(seed))
	interval := p.tab.cluster.Interval()
	hosts := p.tab.cluster.HostIDs()
	down := map[string]bool{}
	pickRunning := func() string {
		if n := len(p.tab.agent.running); n > 0 {
			return p.tab.agent.running[src.Intn(n)].ID
		}
		return ""
	}
	failures, cancels, boosts := 0, 0, 0
	for step := 0; step < 120; step++ {
		switch k := src.Intn(10); {
		case k < 3: // submit; one in four cannot meet its deadline
			credits := float64(5 + src.Intn(60))
			count, n, minutes := 1+src.Intn(4), 1+src.Intn(6), float64(5+src.Intn(30))
			deadline := time.Duration(2+src.Intn(4)) * time.Hour
			if src.Intn(4) == 0 {
				minutes, deadline = 240, 20*time.Minute
			}
			p.both(fmt.Sprintf("step %d: submit", step), func(w *world) error {
				_, err := w.agent.Submit(w.payToken(t, credits), request(count, deadline), chunks(n, minutes))
				return err
			})
		case k == 3:
			if id := pickRunning(); id != "" {
				credits := float64(1 + src.Intn(20))
				boosts++
				p.both(fmt.Sprintf("step %d: boost %s", step, id), func(w *world) error {
					return w.agent.Boost(id, w.payToken(t, credits))
				})
			}
		case k == 4:
			if id := pickRunning(); id != "" && src.Intn(2) == 0 {
				cancels++
				p.both(fmt.Sprintf("step %d: cancel %s", step, id), func(w *world) error {
					return w.agent.Cancel(id)
				})
			}
		case k == 5:
			if h := hosts[src.Intn(len(hosts))]; !down[h] && len(down) < len(hosts)-2 {
				down[h] = true
				failures++
				p.both(fmt.Sprintf("step %d: fail %s", step, h), func(w *world) error {
					_, err := w.cluster.FailHost(h)
					return err
				})
			}
		case k == 6:
			for _, h := range hosts { // the first down host, if any
				if down[h] {
					delete(down, h)
					p.both(fmt.Sprintf("step %d: recover %s", step, h), func(w *world) error {
						return w.cluster.RecoverHost(h)
					})
					break
				}
			}
		default:
			ticks := time.Duration(1 + src.Intn(40))
			p.both(fmt.Sprintf("step %d: %d ticks", step, ticks), func(w *world) error {
				w.eng.RunFor(ticks * interval)
				return nil
			})
		}
	}
	if failures == 0 || cancels == 0 || boosts == 0 {
		t.Fatalf("the schedule made %d host failures, %d cancels, %d boosts; it must exercise each", failures, cancels, boosts)
	}
	// Let every job finish or run into its deadline.
	p.both("the long run", func(w *world) error {
		w.eng.RunFor(8 * time.Hour)
		return nil
	})
	lost := 0 // tab rows of hosts a failover took out of Hosts
	for _, job := range p.tab.agent.Jobs() {
		if job.State == StateRunning {
			t.Fatalf("%s still running after every deadline has passed", job.ID)
		}
		var sum bank.Amount
		for _, hc := range job.ChargedByHost() {
			sum += hc.Charged
			if job.State == StateDone && !slices.Contains(job.Hosts, hc.Host) {
				lost++
			}
		}
		if sum != job.Charged {
			t.Errorf("%s: charged by host sums to %v, charged %v", job.ID, sum, job.Charged)
		}
	}
	if lost == 0 {
		t.Error("no finished job was charged by a host it later lost: the schedule does not exercise failover's effect on the tab")
	}

	// Nothing is left of the difference.
	accounts, twinAccounts := p.tab.bank.Accounts(), p.every.bank.Accounts()
	slices.Sort(accounts)
	slices.Sort(twinAccounts)
	if !slices.Equal(accounts, twinAccounts) {
		t.Fatalf("accounts %v, twin's %v", accounts, twinAccounts)
	}
	for _, id := range accounts {
		got, want := balance(p.tab, id), balance(p.every, id)
		if got != want {
			t.Errorf("%s holds %v, twin's %v", id, got, want)
		}
		if strings.HasPrefix(string(id), "broker/") && got != 0 {
			t.Errorf("sub-account %s still holds %v", id, got)
		}
	}
	if got, want := p.tab.bank.TotalMoney(), p.every.bank.TotalMoney(); got != want {
		t.Errorf("total money %v, twin's %v", got, want)
	}
	if got, want := refunds(p.tab), refunds(p.every); !slices.Equal(got, want) {
		t.Errorf("refund entries differ:\n  tab   %v\n  twin  %v", got, want)
	}
	sum, count := charges(p.tab)
	twinSum, _ := charges(p.every)
	if len(sum) == 0 || len(sum) != len(twinSum) {
		t.Fatalf("%d (job, host) pairs with charge entries, twin has %d", len(sum), len(twinSum))
	}
	for k, v := range sum {
		if v != twinSum[k] {
			t.Errorf("%s %q: charge entries sum to %v, twin's to %v", k[0], k[1], v, twinSum[k])
		}
		if count[k] != 1 {
			t.Errorf("%s %q: %d charge entries, want the one teardown banks", k[0], k[1], count[k])
		}
	}

	// A charge for a job whose escrow is gone is a bug: the bank used to
	// refuse it (the sub-account is empty); book refuses it now.
	job := p.tab.agent.Jobs()[0]
	defer func() {
		if recover() == nil {
			t.Errorf("a charge for %s was booked after its escrow was released", job.ID)
		}
	}()
	p.tab.cluster.OnSettle([]marketplane.TickResult{{Host: hosts[0], Charges: []auction.Charge{
		{Bidder: auction.BidderID(job.SubAccount), Amount: 1},
	}}})
}
