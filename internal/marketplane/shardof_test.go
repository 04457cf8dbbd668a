package marketplane

import (
	"fmt"
	"testing"
)

// TestShardOfStability pins the FNV-1a assignment: shard placement is part of
// the determinism contract (the plane's tick merge order), so a silent hash
// change would invalidate every recorded run.
func TestShardOfStability(t *testing.T) {
	cases := []struct {
		key  string
		n    int
		want int
	}{
		{"", 4, 1},     // offset basis % 4
		{"h00", 1, 0},  // n<=1 always shard 0
		{"h00", 0, 0},  // degenerate n
		{"h00", -3, 0}, // degenerate n
	}
	for _, c := range cases {
		if got := shardOf(c.key, c.n); got != c.want {
			t.Errorf("shardOf(%q, %d) = %d, want %d", c.key, c.n, got, c.want)
		}
	}
}

// TestShardOfProperties checks range and key/count-only dependence over a
// spread of host-style keys.
func TestShardOfProperties(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 16} {
		counts := make([]int, n)
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("h%04d", i)
			s := shardOf(key, n)
			if s < 0 || s >= n {
				t.Fatalf("shardOf(%q, %d) = %d out of range", key, n, s)
			}
			if again := shardOf(key, n); again != s {
				t.Fatalf("shardOf(%q, %d) unstable: %d then %d", key, n, s, again)
			}
			counts[s]++
		}
		if n > 1 {
			for s, c := range counts {
				if c == 0 {
					t.Errorf("n=%d: shard %d received no keys (degenerate spread)", n, s)
				}
			}
		}
	}
}
