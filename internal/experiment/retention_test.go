package experiment

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/token"
)

// TestFinishedJobRetentionAllocationBound: what a long-lived broker keeps of
// one finished job — its GridJob and agent record (sub-jobs, bids, hosts,
// tab, timeline records), the sub-account and ledger lines it left in the
// bank, its mint's receipt and its spent-token entry — is at most maxPerJob
// bytes of heap. The jobs are the grid-dense workload's: the paper's
// application as xRSL text with an encoded transfer token, through
// arc.Manager.Submit, into 300 hosts; each text is built, submitted and
// dropped, so whatever the job still holds of it is counted. The world is
// warmed with one wave first, and measured once every job has finished and
// every idle VM has been purged. It read ≈ 6 700 B while a job's request
// pinned its submitted text (the token's ≈ 0.9 KB included) through the
// substrings JobName and Executable, and its busy map and chunk queue
// outlived its release; ≈ 5 020 B while the job kept its ended lifecycle
// span (where the timeline reads only the span's ids) and its agent job the
// OnComplete and OnFail closures; ≈ 4 810 B since.
func TestFinishedJobRetentionAllocationBound(t *testing.T) {
	const hosts, users, wave, waves, maxPerJob = 300, 150, 150, 4, 5600
	const text = "&(executable=scan.sh)(jobname=bench-%d)(count=8)(cputime=10)(walltime=120)(transfertoken=%s)"
	cfg := PaperWorld()
	cfg.Hosts, cfg.Users, cfg.Tracer = hosts, users, quietTracer()
	cfg.PurgeIdleAfter = 10 * time.Minute
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interval := w.Cluster.Interval()
	seq := 0
	submitWave := func() {
		for i := 0; i < wave; i++ {
			tok, err := w.MintToken(w.Users[seq%users], 50*bank.Credit)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := token.Encode(tok)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Manager.Submit(fmt.Sprintf(text, seq, enc), nil); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		w.Engine.RunFor(120 * interval)
	}
	// drain runs until no job is queued or running and no VM is left.
	drain := func() {
		for tick := 0; ; tick++ {
			m := w.Manager.Monitor()
			if m.JobsQueued+m.JobsRunning == 0 && m.VirtualCPUs == 0 {
				return
			}
			if tick == 2000 {
				t.Fatalf("after %d more ticks: %+v", tick, m)
			}
			w.Engine.RunFor(interval)
		}
	}
	submitWave()
	drain()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < waves; i++ {
		submitWave()
	}
	drain()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	for _, gj := range w.Manager.Jobs() {
		if gj.State != arc.StateFinished {
			t.Fatalf("job %s ended %s (%s), want every job finished", gj.ID, gj.State, gj.Error)
		}
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (waves * wave)
	if per > maxPerJob {
		t.Errorf("the broker keeps %.0f B of heap per finished job, want <= %d", per, maxPerJob)
	} else {
		t.Logf("the broker keeps %.0f B of heap per finished job", per)
	}
}
