package sim

import "sync"

// FanOut runs fn(0) … fn(n-1) and waits for all of them. With n == 1 it
// calls fn inline on the caller's goroutine — no goroutine, no
// synchronization, and therefore exactly the single-threaded execution the
// deterministic engine contract requires. With n >= 2 each index runs on its
// own goroutine; callers must ensure the work items share no mutable state
// except through their own synchronization.
//
// This is the one concurrency primitive the simulation stack uses for
// intra-tick parallelism (the sharded market plane fans a tick out across
// shards); keeping it here makes the n == 1 inline guarantee — a one-shard
// cluster, the default, ticks without a goroutine — easy to audit.
func FanOut(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
