package marketplane

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/sim"
)

type priceAt struct {
	price float64
	at    time.Time
}

// observedMarkets builds n markets, each with an observer that appends to its
// own stream.
func observedMarkets(t *testing.T, n int, mechName string) ([]HostMarket, [][]priceAt) {
	t.Helper()
	markets := testMechanismMarkets(t, n, mechName)
	streams := make([][]priceAt, n)
	for i, m := range markets {
		m.Observe(func(price float64, at time.Time) { streams[i] = append(streams[i], priceAt{price, at}) })
	}
	return markets, streams
}

// marketOp is one step of a schedule, applied alike to the plane's markets
// and the oracle's.
type marketOp struct {
	kind   string // enqueue, place, cancel, boost, sync
	host   int
	bidder auction.BidderID
	amount bank.Amount
	life   int // intervals from the tick's instant to the bid's deadline
}

// sleepSchedule is a seeded run: busy stretches, where a few of the hosts are
// bid on, boosted and cancelled on, between idle stretches long enough for
// every mechanism to settle; some hosts are never touched. The last tick bids
// on every host, so each market's clock shows in the charges that follow.
func sleepSchedule(seed int64, hosts, ticks int) [][]marketOp {
	rnd := rand.New(rand.NewSource(seed))
	sched := make([][]marketOp, ticks)
	busy := func(tk int) bool { return tk < 25 || (tk >= 90 && tk < 105) }
	for tk := range sched {
		if !busy(tk) {
			if rnd.Intn(10) == 0 { // a reader looks at an idle host
				sched[tk] = append(sched[tk], marketOp{kind: "sync", host: rnd.Intn(hosts)})
			}
			continue
		}
		for n := rnd.Intn(5); n > 0; n-- {
			op := marketOp{
				kind:   []string{"enqueue", "enqueue", "place", "cancel", "boost"}[rnd.Intn(5)],
				host:   rnd.Intn(hosts * 2 / 3), // the last third is never touched
				bidder: auction.BidderID(fmt.Sprintf("b%d", rnd.Intn(4))),
				amount: bank.Amount(1+rnd.Intn(5)) * bank.Credit,
				life:   2 + rnd.Intn(5),
			}
			sched[tk] = append(sched[tk], op)
		}
	}
	last := ticks - 4
	sched[last] = nil
	for h := 0; h < hosts; h++ {
		sched[last] = append(sched[last], marketOp{kind: "place", host: h, bidder: "probe", amount: 10 * bank.Credit, life: 100})
	}
	return sched
}

// instantOf is the schedule's clock: periodic, with two jumps, so the shards'
// tick logs hold more than one run.
func instantOf(tk int) time.Time {
	at := sim.Epoch.Add(time.Duration(tk+1) * auction.DefaultInterval)
	if tk >= 40 {
		at = at.Add(3 * time.Second)
	}
	if tk >= 95 {
		at = at.Add(time.Minute)
	}
	return at
}

// applyOp applies a non-queued op to a market and reports whether it took.
func applyOp(m *auction.Market, op marketOp, now time.Time) bool {
	var err error
	switch op.kind {
	case "place":
		_, err = m.PlaceBid(op.bidder, op.amount, now.Add(time.Duration(op.life)*auction.DefaultInterval))
	case "cancel":
		_, err = m.CancelBid(op.bidder)
	case "boost":
		err = m.Boost(op.bidder, op.amount)
	}
	return err == nil
}

func sameCharges(a, b []auction.Charge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A plane that lets quiet markets sleep is held to the plainest oracle there
// is: a loop that calls Market.Tick on every market at every instant. Under
// every mechanism, shard count and sweep entry point, with and without a skip
// predicate, the two agree on every tick's charges and refunds, and — once the
// plane's markets are synced — on every observer's (price, instant) stream,
// and on the charges that follow, which depend on each market's clock.
func TestSleepingPlaneMatchesTickingEveryMarket(t *testing.T) {
	const hosts, ticks = 12, 160
	for _, mechName := range mechanism.Names() {
		for _, shards := range []int{1, 2, 4} {
			for _, skipping := range []bool{false, true} {
				for _, entry := range []string{"TickAll", "TickShard"} {
					name := fmt.Sprintf("%s/shards=%d/skip=%v/%s", mechName, shards, skipping, entry)
					t.Run(name, func(t *testing.T) {
						testSleepingPlane(t, mechName, shards, skipping, entry, hosts, sleepSchedule(int64(shards)*7+1, hosts, ticks))
					})
				}
			}
		}
	}
}

func testSleepingPlane(t *testing.T, mechName string, shards int, skipping bool, entry string, hosts int, sched [][]marketOp) {
	got, gotStreams := observedMarkets(t, hosts, mechName)
	want, wantStreams := observedMarkets(t, hosts, mechName)
	p, err := New(Config{Shards: shards, Markets: got})
	if err != nil {
		t.Fatal(err)
	}
	// Host 2 is bid on and host 10 never is; each is down for a stretch.
	skipped := func(tk, host int) bool {
		return skipping && ((host == 2 && tk >= 10 && tk < 30) || (host == 10 && tk >= 50 && tk < 70))
	}

	var queue []marketOp
	for tk, ops := range sched {
		now := instantOf(tk)
		prev := sim.Epoch
		if tk > 0 {
			prev = instantOf(tk - 1)
		}
		for _, op := range ops {
			g, w := got[op.host].(*auction.Market), want[op.host].(*auction.Market)
			switch op.kind {
			case "enqueue":
				deadline := now.Add(time.Duration(op.life) * auction.DefaultInterval)
				p.EnqueueBidAt(op.host, op.bidder, op.amount, deadline)
				queue = append(queue, op)
			case "sync":
				g.Sync()
			default:
				if a, b := applyOp(g, op, prev), applyOp(w, op, prev); a != b {
					t.Fatalf("tick %d: %+v took on the plane's market: %v, on the oracle's: %v", tk, op, a, b)
				}
			}
		}
		// The skip contract: a host is synced before the predicate first
		// accepts it.
		for h := range got {
			if skipped(tk, h) && !skipped(tk-1, h) {
				got[h].(*auction.Market).Sync()
			}
		}

		// The oracle: queued bids in arrival order, then every market.
		wantRes := make([]TickResult, hosts)
		for _, op := range queue {
			if !skipped(tk, op.host) {
				applyOp(want[op.host].(*auction.Market), marketOp{kind: "place", bidder: op.bidder, amount: op.amount, life: op.life}, now)
			}
		}
		queue = queue[:0]
		for h, m := range want {
			if !skipped(tk, h) {
				wantRes[h].Charges, wantRes[h].Refunds = m.Tick(now)
			}
		}

		gotRes := make(map[string]TickResult)
		if entry == "TickAll" {
			prevHost := ""
			for _, r := range p.TickAll(now, func(i int) bool { return skipped(tk, i) }) {
				if r.Host <= prevHost {
					t.Fatalf("tick %d: TickAll returned %s after %s", tk, r.Host, prevHost)
				}
				prevHost = r.Host
				gotRes[r.Host] = r
			}
		} else {
			for sh := 0; sh < shards; sh++ {
				for _, r := range p.TickShard(sh, now, func(host string) bool { return skipped(tk, p.byHost[host]) }) {
					gotRes[r.Host] = r
				}
			}
		}
		if tk == len(sched)-5 { // just before every host is bid on
			behind := 0
			for h := range want {
				if len(gotStreams[h]) < len(wantStreams[h]) {
					behind++
				}
			}
			if behind < hosts/3 {
				t.Errorf("only %d of %d hosts are asleep after a long idle stretch", behind, hosts)
			}
		}
		for h := range want {
			r := gotRes[want[h].HostID()] // a sleeping host may have no result: nothing was owed
			if !sameCharges(r.Charges, wantRes[h].Charges) || !sameCharges(r.Refunds, wantRes[h].Refunds) {
				t.Fatalf("tick %d host %d: charges %v refunds %v, want %v and %v",
					tk, h, r.Charges, r.Refunds, wantRes[h].Charges, wantRes[h].Refunds)
			}
		}
	}

	for h, m := range got {
		m.(*auction.Market).Sync()
		if p.PriceAt(h) != m.SpotPrice() {
			t.Errorf("host %d: cached price %v, spot %v", h, p.PriceAt(h), m.SpotPrice())
		}
	}
	for h := range want {
		g, w := gotStreams[h], wantStreams[h]
		if len(g) != len(w) {
			t.Errorf("host %d: observer saw %d samples, want %d", h, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i].price != w[i].price || !g[i].at.Equal(w[i].at) {
				t.Errorf("host %d sample %d: %v at %v, want %v at %v", h, i, g[i].price, g[i].at, w[i].price, w[i].at)
				break
			}
		}
	}
}

// Bids land on sleeping markets from other goroutines while sweeps run, and
// submitters price every market, asleep or not, without waking it. No market
// misses an instant or gets one twice: after a final sync, every observer
// holds exactly the swept instants, in order.
func TestConcurrentBidsOnSleepingMarkets(t *testing.T) {
	const hosts, sweeps, bidders = 16, 300, 4
	markets, streams := observedMarkets(t, hosts, mechanism.Proportional)
	p, err := New(Config{Shards: 2, Markets: markets})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for b := 0; b < bidders; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(b)))
			id := auction.BidderID(fmt.Sprintf("b%d", b))
			far := sim.Epoch.Add(1000 * time.Hour)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := rnd.Intn(hosts)
				m := markets[h].(*auction.Market)
				if rnd.Intn(2) == 0 {
					p.EnqueueBidAt(h, id, bank.Credit, far)
				} else if _, err := m.PlaceBid(id, bank.Credit, far); err != nil {
					t.Error(err)
				}
				// Withdraw it again, so that markets keep falling asleep.
				_, _ = m.CancelBid(id) // unknown while the bid is still queued
			}
		}()
	}
	idle := markets[0].(*auction.Market).PriceExcluding("reader") // the reserve: nothing has bid yet
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for h, m := range markets {
					// The reserve, or the bidders' one credit each over 1000
					// hours (2.8e-7 a second) where that comes to more.
					if got := m.(*auction.Market).PriceExcluding("reader"); got < idle || got > 2*idle {
						t.Errorf("host %d priced at %v, want the reserve %v or the sum of at most %d bids", h, got, idle, bidders)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= sweeps; i++ {
		p.TickAll(sim.Epoch.Add(time.Duration(i)*auction.DefaultInterval), nil)
	}
	close(stop)
	wg.Wait()
	for h, m := range markets {
		m.(*auction.Market).Sync()
		if len(streams[h]) != sweeps {
			t.Errorf("host %d saw %d samples over %d sweeps", h, len(streams[h]), sweeps)
			continue
		}
		for i, s := range streams[h] {
			if want := sim.Epoch.Add(time.Duration(i+1) * auction.DefaultInterval); !s.at.Equal(want) {
				t.Errorf("host %d sample %d at %v, want %v", h, i, s.at, want)
				break
			}
		}
	}
}

// sleepTracked is a market that knows whether it is asleep: it fell asleep
// when Sleep said so, and woke when its waker was called.
type sleepTracked struct {
	*auction.Market
	asleep bool
}

func (m *sleepTracked) Sleep(w auction.Waker) bool {
	slept := m.Market.Sleep(wakeTracked{w, m})
	m.asleep = m.asleep || slept
	return slept
}

type wakeTracked struct {
	auction.Waker
	m *sleepTracked
}

func (w wakeTracked) Wake(replay func(at time.Time)) {
	w.m.asleep = false
	w.Waker.Wake(replay)
}

// AppendAwake lists, ascending, exactly the markets that are not asleep —
// after the ops that wake markets between sweeps, before the sweep that takes
// them in, and after it — at every shard count.
func TestAppendAwakeListsEveryMarketNotAsleep(t *testing.T) {
	const hosts, ticks = 12, 160
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tracked := make([]*sleepTracked, hosts)
			markets := make([]HostMarket, hosts)
			for i, m := range testMechanismMarkets(t, hosts, mechanism.PostedPrice) {
				tracked[i] = &sleepTracked{Market: m.(*auction.Market)}
				markets[i] = tracked[i]
			}
			p, err := New(Config{Shards: shards, Markets: markets})
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				var want []int
				for i, m := range tracked {
					if !m.asleep {
						want = append(want, i)
					}
				}
				if got := p.AppendAwake(nil); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: AppendAwake %v, awake markets %v", when, got, want)
				}
			}
			slept := 0
			for tk, ops := range sleepSchedule(int64(shards)*5+2, hosts, ticks) {
				now, prev := instantOf(tk), sim.Epoch
				if tk > 0 {
					prev = instantOf(tk - 1)
				}
				for _, op := range ops {
					switch op.kind {
					case "enqueue":
						p.EnqueueBidAt(op.host, op.bidder, op.amount, now.Add(time.Duration(op.life)*auction.DefaultInterval))
					case "sync":
						tracked[op.host].Sync()
					default:
						applyOp(tracked[op.host].Market, op, prev)
					}
				}
				check(fmt.Sprintf("tick %d, before the sweep", tk))
				p.TickAll(now, nil)
				check(fmt.Sprintf("tick %d, after the sweep", tk))
				if n := len(p.AppendAwake(nil)); n < hosts {
					slept++
				}
			}
			if slept == 0 {
				t.Fatal("no market ever slept")
			}
		})
	}
}
