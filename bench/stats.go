package main

import (
	"crypto/ed25519"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tycoongrid/internal/metrics"
)

// quantile returns the q-quantile of samples (nearest rank); it sorts in
// place. Empty input yields 0.
func quantile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return float64(samples[int(q*float64(len(samples)-1))])
}

func sum(samples []int64) (s int64) {
	for _, v := range samples {
		s += v
	}
	return s
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the interquartile distance as a share of the median, the
// steadiness figure the bounds in BENCHMARK.json are compared against.
// Quartiles follow Python's statistics.quantiles(n=4) (exclusive method).
func spread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / med
}

// The sizing machine changes speed: for minutes at a time, throughput-bound
// code (signature checks, and with them every workload here) runs a third
// slower, while nothing in /proc shows it. No estimator inside one run can
// see through that, so the benchmark carries its own speedometer: a fixed
// reference loop, independent of the repository's code, run for a few
// milliseconds at every slice boundary. Timings are reported in the time an
// undisturbed core would have taken: wall x (reference rate / nominal rate).

// speedShare is, per workload, the share of its time that slows down in step
// with the reference loop when the machine does — fitted on the sizing
// machine from runs in both regimes. The rest (cache misses, pointer
// chasing, waits) takes the same time in either, so correcting it too would
// make a slow machine look fast.
var speedShare = map[string]float64{
	"grid-wide": 0.75, "grid-dense": 0.80, "broker-predict": 0.80,
	"plane-burst": 1, "bank-mem": 1, "bank-fsync": 1,
}

// timeFactor is what a wall time measured at the given machine speed is
// multiplied by to get the time an undisturbed core would have taken.
func timeFactor(workload string, speed float64) float64 {
	share := speedShare[workload]
	return share*speed + 1 - share
}

// speedNominal is the reference loop's rate on an undisturbed core of the
// sizing machine, so that there the correction is 1.
const speedNominal = 19000.0

var (
	speedPub, speedPriv, _ = ed25519.GenerateKey(nil)
	speedMsg               = make([]byte, 64)
	speedSig               = ed25519.Sign(speedPriv, speedMsg)
)

// machineSpeed runs the reference loop (Ed25519 verifications, the unit
// cost of both hot paths) for about 5 ms and returns its rate relative to
// nominal: 1 on an undisturbed core, about 0.65 in the slow regime.
func machineSpeed() float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < 5*time.Millisecond {
		for i := 0; i < 8; i++ {
			ed25519.Verify(speedPub, speedMsg, speedSig)
		}
		n += 8
	}
	return float64(n) / time.Since(t0).Seconds() / speedNominal
}

// mark is a slice boundary inside a timed run: the slice before it ends,
// the speedometer runs, the slice after it starts. cpu is the CPU time of
// the process doing the work; ops the operations completed so far.
type mark struct {
	end, start       time.Time
	endCPU, startCPU time.Duration
	speed            float64
	ops              int
}

// cut makes a mark now.
func cut(ops int, cpu func() time.Duration) mark {
	m := mark{end: time.Now(), endCPU: cpu(), ops: ops}
	m.speed = machineSpeed()
	m.startCPU, m.start = cpu(), time.Now()
	return m
}

// sliceRates cuts a run at its marks and returns, per slice, the machine
// speed during it and its time factor and, for the slices that completed
// operations, corrected operations per second and CPU microseconds per
// operation. A slice's speed is the median of the four readings nearest to
// it (two marks either side): the speed changes over minutes, a single 5 ms
// reading is noisier than that.
func sliceRates(workload string, marks []mark) (speeds, factors, rates, cpus []float64) {
	for i := 1; i < len(marks); i++ {
		var near []float64
		for _, m := range marks[max(0, i-2):min(len(marks), i+2)] {
			near = append(near, m.speed)
		}
		factor := timeFactor(workload, median(near))
		speeds, factors = append(speeds, median(near)), append(factors, factor)
		ops := float64(marks[i].ops - marks[i-1].ops)
		if wall := marks[i].end.Sub(marks[i-1].start).Seconds(); ops > 0 && wall > 0 {
			rates = append(rates, ops/wall/factor)
			cpus = append(cpus, float64((marks[i].endCPU-marks[i-1].startCPU).Microseconds())/ops*factor)
		}
	}
	return speeds, factors, rates, cpus
}

// corrected scales chunk j's quantile by slice j's time factor; chunks and
// slices are cut at the same places.
func corrected(qs, factors []float64) []float64 {
	out := make([]float64, 0, len(qs))
	for j, q := range qs {
		if j < len(factors) {
			out = append(out, q*factors[j])
		}
	}
	return out
}

// chunkQuantiles cuts time-ordered samples into consecutive chunks of size
// and returns each chunk's q-quantile; a short last chunk is dropped unless
// it is the only one. It reorders samples within chunks.
func chunkQuantiles(samples []int64, size int, q float64) []float64 {
	var qs []float64
	for len(samples) >= size {
		qs = append(qs, quantile(samples[:size], q))
		samples = samples[size:]
	}
	if len(qs) == 0 && len(samples) > 0 {
		qs = append(qs, quantile(samples, q))
	}
	return qs
}

// medianSetup runs build `repeats` times, keeping only what the last call
// leaves behind, and returns the median corrected wall seconds of one build.
func medianSetup(workload string, repeats int, build func() error) (float64, error) {
	var secs []float64
	for i := 0; i < repeats; i++ {
		runtime.GC() // the previous build's garbage must not slow this one
		before := machineSpeed()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		wall := time.Since(t0).Seconds()
		secs = append(secs, wall*timeFactor(workload, (before+machineSpeed())/2))
	}
	return median(secs), nil
}

// peakRSSMB is a process's peak resident set: VmHWM of /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is another process's CPU time so far: the on-CPU nanoseconds of
// each of its threads (first field of /proc/<pid>/task/<tid>/schedstat).
// The utime and stime of /proc/<pid>/stat count in 10 ms ticks, too coarse
// for a slice of a second.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("bench: no /proc/%d/task/*/schedstat (%v)", pid, err)
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			ns, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bench: malformed %s", t)
			}
			total += ns
		}
	}
	return time.Duration(total), nil
}

// counterDelta sums one counter family's children in a registry delta.
func counterDelta(delta metrics.Snapshot, family string) float64 {
	var n uint64
	for _, c := range delta.Counters {
		if c.Name == family {
			n += c.Value
		}
	}
	return float64(n)
}

// registryCounts copies the work counters the in-process workloads share
// out of a registry delta into layer metrics.
func registryCounts(l map[string]float64, delta metrics.Snapshot) {
	for name, family := range map[string]string{
		"auction.clears":       "auction_clears_total",
		"auction.bids_placed":  "auction_bids_placed_total",
		"bank.moves":           "bank_internal_moves_total",
		"bank.transfers":       "bank_transfers_total",
		"token.redemptions":    "token_redemptions_total",
		"grid.tasks_completed": "grid_tasks_completed_total",
		"pricefeed.samples":    "pricefeed_samples_recorded_total",
		"arc.meta_picks":       "arc_meta_picks_total",
	} {
		l[name] = counterDelta(delta, family)
	}
}

// envBlock describes the machine, so a number is never read without it.
func envBlock() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"commit":     "unknown",
		"cpu":        "unknown",
		"kernel":     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					env["cpu"] = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(data))
	}
	return env
}
