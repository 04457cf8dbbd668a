package httpapi

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/token"
)

// jobWorld spins up a box behind a JobService, with one funded user whose
// encoded transfer tokens mint hands out.
func jobWorld(t *testing.T) (mint func(bank.Amount) string, client *JobClient, svc *JobService) {
	t.Helper()
	cfg := box.DefaultConfig()
	cfg.Users, cfg.GrantPerUser = 1, 10000*bank.Credit
	b, err := box.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err = NewJobService(b.Manager, b.Engine)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	mint = func(amount bank.Amount) string {
		t.Helper()
		var tok token.Token
		var err error
		// Minting moves money on the engine's bank: under the service lock,
		// as the daemon does it.
		svc.WithLock(func() { tok, err = b.MintToken(b.Users[0], amount) })
		if err != nil {
			t.Fatal(err)
		}
		enc, err := token.Encode(tok)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	return mint, NewJobClient(srv.URL, nil), svc
}

func (s *JobService) driveFor(d time.Duration) {
	s.Drive(s.engine.Now().Add(d))
}

func TestNewJobServiceValidation(t *testing.T) {
	if _, err := NewJobService(nil, nil); err == nil {
		t.Error("nil manager accepted")
	}
}

func TestJobSubmissionOverHTTP(t *testing.T) {
	mint, client, svc := jobWorld(t)
	tok := mint(25 * bank.Credit)
	xrsl := fmt.Sprintf(
		"&(executable=scan.sh)(jobname=http-job)(count=2)(cputime=5)(walltime=60)(transfertoken=%s)", tok)
	jw, err := client.Submit(xrsl)
	if err != nil {
		t.Fatal(err)
	}
	if jw.State != "PREPARING" && jw.State != "INLRMS:R" {
		t.Errorf("initial state = %q", jw.State)
	}
	svc.driveFor(time.Hour)
	got, err := client.Job(jw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "FINISHED" {
		t.Fatalf("state = %q (%s)", got.State, got.Error)
	}
	if got.SubJobsDone != 2 || got.SubJobsTotal != 2 {
		t.Errorf("sub-jobs %d/%d", got.SubJobsDone, got.SubJobsTotal)
	}
	if got.JobName != "http-job" || got.DN == "" || got.Charged == "" {
		t.Errorf("wire fields missing: %+v", got)
	}
	jobs, err := client.Jobs()
	if err != nil || len(jobs) != 1 {
		t.Errorf("jobs = %v, %v", jobs, err)
	}
}

// TestJobChargedByHostOverHTTP: "why did this job cost what it cost", first
// column. The per-host breakdown is read off the job's tab: it sums to
// charged while the job runs (when the bank has not heard of any of it) and
// after it has finished (when the bank has heard of all of it).
func TestJobChargedByHostOverHTTP(t *testing.T) {
	mint, client, svc := jobWorld(t)
	xrsl := fmt.Sprintf(
		"&(executable=scan.sh)(count=2)(cputime=20)(walltime=120)(transfertoken=%s)", mint(25*bank.Credit))
	jw, err := client.Submit(xrsl)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when, state string) {
		t.Helper()
		got, err := client.Job(jw.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != state {
			t.Fatalf("%s: state = %q (%s), want %s", when, got.State, got.Error, state)
		}
		total, err := bank.ParseAmount(got.Charged)
		if err != nil || total <= 0 {
			t.Fatalf("%s: charged = %q (%v), want a positive amount", when, got.Charged, err)
		}
		if len(got.ChargedByHost) != len(got.Hosts) {
			t.Fatalf("%s: %d rows for hosts %v: %+v", when, len(got.ChargedByHost), got.Hosts, got.ChargedByHost)
		}
		var sum bank.Amount
		for i, row := range got.ChargedByHost {
			if row.Host != got.Hosts[i] {
				t.Errorf("%s: row %d is %s, want %s (ascending by host)", when, i, row.Host, got.Hosts[i])
			}
			amount, err := bank.ParseAmount(row.Charged)
			if err != nil {
				t.Fatal(err)
			}
			sum += amount
		}
		if sum != total {
			t.Errorf("%s: charged_by_host sums to %v, charged is %v", when, sum, total)
		}
	}
	svc.driveFor(5 * time.Minute)
	check("mid-run", "INLRMS:R")
	svc.driveFor(2 * time.Hour)
	check("after the job", "FINISHED")
}

func TestJobSubmitErrorsOverHTTP(t *testing.T) {
	_, client, _ := jobWorld(t)
	if _, err := client.Submit("not xrsl"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := client.Submit(""); err == nil {
		t.Error("empty body accepted")
	}
	if _, err := client.Job("ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("ghost job: %v", err)
	}
}

func TestJobBoostOverHTTP(t *testing.T) {
	mint, client, svc := jobWorld(t)
	tok := mint(20 * bank.Credit)
	xrsl := fmt.Sprintf(
		"&(executable=x)(count=2)(cputime=30)(walltime=600)(transfertoken=%s)", tok)
	jw, err := client.Submit(xrsl)
	if err != nil {
		t.Fatal(err)
	}
	svc.driveFor(time.Minute)
	boost := mint(50 * bank.Credit)
	if err := client.Boost(jw.ID, boost); err != nil {
		t.Fatalf("boost: %v", err)
	}
	if err := client.Boost("ghost", boost); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("ghost boost: %v", err)
	}
	if err := client.Boost(jw.ID, "garbage"); err == nil {
		t.Error("garbage token accepted")
	}
}

func TestMonitorOverHTTP(t *testing.T) {
	mint, client, svc := jobWorld(t)
	snap, err := client.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	if snap.PhysicalNodes != 8 || snap.ClusterName != "tycoon-box" {
		t.Errorf("snapshot = %+v", snap)
	}
	tok := mint(10 * bank.Credit)
	if _, err := client.Submit(fmt.Sprintf(
		"&(executable=x)(count=2)(cputime=30)(walltime=300)(transfertoken=%s)", tok)); err != nil {
		t.Fatal(err)
	}
	svc.driveFor(time.Minute)
	snap, err = client.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsRunning != 1 || snap.VirtualCPUs == 0 {
		t.Errorf("running snapshot = %+v", snap)
	}
}

func TestJobCancelOverHTTP(t *testing.T) {
	mint, client, svc := jobWorld(t)
	tok := mint(50 * bank.Credit)
	jw, err := client.Submit(fmt.Sprintf(
		"&(executable=x)(count=2)(cputime=120)(walltime=600)(transfertoken=%s)", tok))
	if err != nil {
		t.Fatal(err)
	}
	svc.driveFor(5 * time.Minute)
	if err := client.Cancel(jw.ID); err != nil {
		t.Fatal(err)
	}
	got, err := client.Job(jw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "KILLED" {
		t.Errorf("state = %q", got.State)
	}
	if err := client.Cancel(jw.ID); err == nil {
		t.Error("double cancel accepted")
	}
	if err := client.Cancel("ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("ghost cancel: %v", err)
	}
}

func TestConcurrentDriveAndRequests(t *testing.T) {
	// The daemon drives the engine from a goroutine while HTTP requests
	// arrive concurrently; under -race this catches any locking gap.
	mint, client, svc := jobWorld(t)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			svc.driveFor(time.Minute)
		}
	}()
	for i := 0; i < 10; i++ {
		tok := mint(10 * bank.Credit)
		if _, err := client.Submit(fmt.Sprintf(
			"&(executable=x)(count=2)(cputime=2)(walltime=60)(transfertoken=%s)", tok)); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Jobs(); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Monitor(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	svc.driveFor(2 * time.Hour)
	jobs, err := client.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	finished := 0
	for _, j := range jobs {
		if j.State == "FINISHED" {
			finished++
		}
	}
	if finished != 10 {
		t.Errorf("finished %d/10 jobs", finished)
	}
}

func TestDriveIsMonotonic(t *testing.T) {
	_, _, svc := jobWorld(t)
	now := svc.engine.Now()
	svc.Drive(now.Add(-time.Hour)) // must not rewind or panic
	if svc.engine.Now().Before(now) {
		t.Error("Drive went backwards")
	}
}
