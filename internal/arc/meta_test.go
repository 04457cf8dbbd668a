package arc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/token"
)

// metaWorld builds one cluster partitioned between two agent replicas, each
// behind its own Manager, under one Meta.
type metaWorld struct {
	eng      *sim.Engine
	bank     *bank.Bank
	meta     *Meta
	user     *pki.Identity
	userBank *pki.Identity
	nonce    int
	brokers  []string
}

func newMetaWorld(t *testing.T) *metaWorld {
	t.Helper()
	eng := sim.NewEngine()
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=CA", [32]byte{1}, pki.WithTimeSource(eng.Now))
	if err != nil {
		t.Fatal(err)
	}
	bankID, _ := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	user, _ := ca.IssueDeterministic("/O=Grid/CN=Alice", [32]byte{3})
	userBank, _ := ca.IssueDeterministic("/CN=AliceBank", [32]byte{4})
	b := bank.New(bankID, eng)
	if _, err := b.CreateAccount("alice", userBank.Public()); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("alice", 100000*bank.Credit, ""); err != nil {
		t.Fatal(err)
	}
	// One cluster of 4 hosts, partitioned two per replica.
	specs := make([]grid.HostSpec, 4)
	for i := range specs {
		specs[i] = grid.HostSpec{ID: fmt.Sprintf("h%02d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
	}
	cluster, err := grid.New(eng, grid.Config{Hosts: specs})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	partitions := [][]string{{"h00", "h01"}, {"h02", "h03"}}
	var managers []*Manager
	var brokers []string
	for i, part := range partitions {
		brokerName := fmt.Sprintf("broker-%d", i)
		brokerID, _ := ca.IssueDeterministic(pki.DN("/CN="+brokerName), [32]byte{byte(10 + i)})
		if _, err := b.CreateAccount(bank.AccountID(brokerName), brokerID.Public()); err != nil {
			t.Fatal(err)
		}
		v, err := token.NewVerifier(b.PublicKey(), ca.Certificate(), bank.AccountID(brokerName), nil)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := agent.New(agent.Config{
			Cluster: cluster, Bank: b, Identity: brokerID,
			Account: bank.AccountID(brokerName), Verifier: v,
			Hosts: part,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := New(Config{ClusterName: brokerName, Agent: ag})
		if err != nil {
			t.Fatal(err)
		}
		managers = append(managers, mgr)
		brokers = append(brokers, brokerName)
	}
	meta, err := NewMeta(managers...)
	if err != nil {
		t.Fatal(err)
	}
	return &metaWorld{eng: eng, bank: b, meta: meta, user: user, userBank: userBank, brokers: brokers}
}

// tokenFor mints an encoded token paying the given replica's broker.
func (w *metaWorld) tokenFor(t *testing.T, broker string, credits float64) string {
	t.Helper()
	w.nonce++
	req := bank.TransferRequest{From: "alice", To: bank.AccountID(broker),
		Amount: bank.MustCredits(credits), Nonce: fmt.Sprintf("m%04d", w.nonce)}
	req.Sig = w.userBank.Sign(req.SigningBytes())
	r, err := w.bank.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	s, err := token.Encode(token.Attach(r, w.user))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewMetaValidation(t *testing.T) {
	if _, err := NewMeta(); err == nil {
		t.Error("no replicas accepted")
	}
	if _, err := NewMeta(nil); err == nil {
		t.Error("nil replica accepted")
	}
}

func TestMetaMatchmakesToCheapestPartition(t *testing.T) {
	w := newMetaWorld(t)
	// First job: both partitions idle; lands somewhere (replica 0 by
	// tie-break). Heavy funding makes its partition expensive.
	xrsl0 := fmt.Sprintf("&(executable=x)(count=2)(cputime=120)(walltime=600)(transfertoken=%s)",
		w.tokenFor(t, w.brokers[0], 500))
	j0, err := w.meta.replicas[0].Submit(xrsl0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = j0
	w.eng.RunFor(time.Minute) // let prices update
	// Matchmade submission must go to the *other* (cheap) partition. The
	// token pays replica 1's broker; if matchmaking picked replica 0 the
	// verification would fail (wrong payee), so acceptance proves routing.
	xrsl1 := fmt.Sprintf("&(executable=x)(count=2)(cputime=5)(walltime=120)(transfertoken=%s)",
		w.tokenFor(t, w.brokers[1], 50))
	gj, err := w.meta.Submit(xrsl1, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(30 * time.Minute)
	got, err := w.meta.Job(gj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFinished {
		t.Fatalf("matchmade job state = %v (%s)", got.State, got.Error)
	}
	for _, h := range got.AgentJob.Hosts {
		if h != "h02" && h != "h03" {
			t.Errorf("job ran on %s, outside the cheap partition", h)
		}
	}
}

func TestMetaJobLookupAndMonitor(t *testing.T) {
	w := newMetaWorld(t)
	xrsl := fmt.Sprintf("&(executable=x)(count=1)(cputime=5)(walltime=60)(transfertoken=%s)",
		w.tokenFor(t, w.brokers[0], 20))
	gj, err := w.meta.replicas[0].Submit(xrsl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.meta.Job(gj.ID); err != nil {
		t.Errorf("meta lookup: %v", err)
	}
	if _, err := w.meta.Job("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ghost: %v", err)
	}
	if len(w.meta.Jobs()) != 1 {
		t.Errorf("jobs = %d", len(w.meta.Jobs()))
	}
	snap := w.meta.Monitor()
	if snap.JobsQueued+snap.JobsRunning != 1 {
		t.Errorf("monitor = %+v", snap)
	}
	if w.meta.Replicas() != 2 {
		t.Errorf("replicas = %d", w.meta.Replicas())
	}
	// Boost routes to the owning replica.
	w.eng.RunFor(time.Minute)
	if err := w.meta.Boost(gj.ID, w.tokenFor(t, w.brokers[0], 5)); err != nil {
		t.Errorf("meta boost: %v", err)
	}
	if err := w.meta.Boost("ghost", "x"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ghost boost: %v", err)
	}
}

func TestPartitionedAgentsStayInPartition(t *testing.T) {
	w := newMetaWorld(t)
	// Submit directly to each replica; each must only use its own hosts.
	for i, broker := range w.brokers {
		xrsl := fmt.Sprintf("&(executable=x)(count=4)(cputime=5)(walltime=60)(transfertoken=%s)",
			w.tokenFor(t, broker, 30))
		gj, err := w.meta.replicas[i].Submit(xrsl, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.eng.RunFor(time.Second)
		want := map[int][]string{0: {"h00", "h01"}, 1: {"h02", "h03"}}[i]
		for _, h := range gj.AgentJob.Hosts {
			ok := false
			for _, wh := range want {
				if h == wh {
					ok = true
				}
			}
			if !ok {
				t.Errorf("replica %d funded host %s outside partition %v", i, h, want)
			}
		}
	}
	w.eng.RunFor(time.Hour)
	for _, gj := range w.meta.Jobs() {
		if gj.State != StateFinished {
			t.Errorf("job %s = %v", gj.ID, gj.State)
		}
	}
}
