package sim

import (
	"sync/atomic"
	"testing"
)

// TestFanOut: every index runs exactly once and FanOut returns only after
// all of them; n <= 0 runs nothing; n == 1 runs inline, so a panic in fn
// reaches the caller's recover instead of killing the process.
func TestFanOut(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		for _, n := range []int{0, -3} {
			FanOut(n, func(i int) { t.Errorf("n=%d ran index %d", n, i) })
		}
	})
	t.Run("inline", func(t *testing.T) {
		defer func() {
			if r := recover(); r != "index 0" {
				t.Errorf("recovered %v, want the panic of fn(0)", r)
			}
		}()
		FanOut(1, func(i int) { panic("index 0") })
		t.Error("fn(0) did not run")
	})
	t.Run("parallel", func(t *testing.T) {
		const n = 8
		var ran [n]atomic.Int32
		FanOut(n, func(i int) { ran[i].Add(1) })
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("index %d ran %d times", i, got)
			}
		}
	})
}
