package core

import (
	"fmt"
	"testing"

	"tycoongrid/internal/rng"
)

// fuzzLevels are the few (w, y) a fuzzed candidate is drawn from, so that
// neighbours are often interchangeable: the idle host, a twin a tenth of a
// microcredit dearer, two kinds that tie with it on w/y without sharing
// sqrt(w*y), and two booked hosts.
var fuzzLevels = [][2]float64{
	{idleW, idlePrice},
	{idleW, idlePrice + 1e-7},
	{idleW / 2, idlePrice / 2},
	{idleW * 2, idlePrice * 2},
	{idleW, 3 * idlePrice},
	{1000, 0.5},
}

// FuzzBestResponseRuns: whatever runs the candidates fall into, BestResponse
// and BestResponseCapped equal the per-host sort.Slice oracles bit for bit,
// bids sum to the budget and the input is not reordered. levels picks each
// candidate's (w, y) in ID order; order 0 keeps that order and anything else
// seeds a shuffle; the budget is microBudget millionths of a credit a second.
func FuzzBestResponseRuns(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(0), uint32(6944), uint8(8))        // one run
	f.Add([]byte{0, 0, 0, 4, 0, 0, 5, 0, 0, 0, 4, 4, 0, 0}, uint8(0), uint32(6944), uint8(3))  // an idle run split by booked hosts
	f.Add([]byte{2, 3, 2, 3, 2, 3, 2, 3, 0, 0}, uint8(0), uint32(100), uint8(2))               // one ratio, interleaved kinds
	f.Add([]byte{2, 2, 2, 3, 3, 3, 0, 0, 0, 1, 1, 1}, uint8(7), uint32(5_000_000), uint8(200)) // shuffled, cap above funded
	f.Add([]byte{5}, uint8(1), uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, levels []byte, order uint8, microBudget uint32, keep uint8) {
		if len(levels) == 0 || len(levels) > 4096 {
			return
		}
		hosts := make([]Host, len(levels))
		for i, b := range levels {
			l := fuzzLevels[int(b)%len(fuzzLevels)]
			hosts[i] = Host{ID: fmt.Sprintf("h%04d", i), Preference: l[0], Price: l[1]}
		}
		if order != 0 {
			rng.New(int64(order)).Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		}
		budget := (float64(microBudget) + 1) * 1e-6
		checkAgainstOracles(t, "fuzz", budget, hosts, []int{int(keep)})
	})
}
