package failpoint

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Named process-wide crash points. Durable-storage code calls Maybe(name) at
// its commit points ("durable.wal.append", "durable.wal.sync",
// "durable.snapshot.written", ...); a point that is armed and whose seeded
// decider fires kills the process on the spot, exactly as a SIGKILL landing
// mid-step would. Crash-recovery tests arm points in a bankd subprocess via
// the environment and then verify that restart-and-replay restores a
// consistent ledger no matter which step the process died inside.
//
// EnvVar holds the arming spec: a comma-separated list of
// name=rate@seed entries, e.g.
//
//	TYCOONGRID_FAILPOINTS="durable.wal.sync=0.001@7,durable.snapshot.written=0.5@3"
//
// Rate is the per-hit crash probability; seed makes the decision stream
// replayable. Daemons opt in by calling ArmFromEnv() at boot, so library
// users and the simulator are never exposed to surprise crash points.
const EnvVar = "TYCOONGRID_FAILPOINTS"

// CrashExitCode is the exit status of a process killed by an armed crash
// point — distinguishable from a clean exit and from an external SIGKILL.
const CrashExitCode = 86

var reg = struct {
	mu     sync.Mutex
	points map[string]*Points
	crash  func(name string)
}{
	points: make(map[string]*Points),
}

// Arm registers (or replaces) the named crash point with a fresh seeded
// decider firing at the given per-hit rate.
func Arm(name string, seed int64, rate float64) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.points[name] = NewPoints(seed, rate)
}

// Disarm removes the named crash point; Maybe(name) becomes a no-op.
func Disarm(name string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	delete(reg.points, name)
}

// SetCrash replaces the crash action — by default an immediate process exit
// with CrashExitCode. In-process tests substitute a panic or a recorder. A
// nil fn restores the default.
func SetCrash(fn func(name string)) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.crash = fn
}

// Maybe consults the named crash point. If the point is armed and its seeded
// decider fires, the crash action runs (by default the process dies without
// flushing anything — the whole point). Unarmed names cost one mutex
// round-trip and nothing else.
func Maybe(name string) {
	reg.mu.Lock()
	p := reg.points[name]
	crash := reg.crash
	fired := p != nil && p.Hit()
	reg.mu.Unlock()
	if !fired {
		return
	}
	if crash != nil {
		crash(name)
		return
	}
	fmt.Fprintf(os.Stderr, "failpoint: crash point %q fired, exiting %d\n", name, CrashExitCode)
	os.Exit(CrashExitCode)
}

// ArmFromEnv parses EnvVar ("name=rate@seed,...") and arms each entry. It
// returns the number of points armed and the first parse error; daemons log
// and continue, since a typo in a chaos spec must not take the daemon down
// before the experiment even starts.
func ArmFromEnv() (int, error) {
	spec := strings.TrimSpace(os.Getenv(EnvVar))
	if spec == "" {
		return 0, nil
	}
	n := 0
	var firstErr error
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("failpoint: bad entry %q (want name=rate@seed)", entry)
			}
			continue
		}
		rateStr, seedStr, _ := strings.Cut(val, "@")
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("failpoint: bad rate in %q: %v", entry, err)
			}
			continue
		}
		var seed int64 = 1
		if seedStr != "" {
			seed, err = strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("failpoint: bad seed in %q: %v", entry, err)
				}
				continue
			}
		}
		Arm(strings.TrimSpace(name), seed, rate)
		n++
	}
	return n, firstErr
}
