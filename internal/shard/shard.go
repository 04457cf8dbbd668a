// Package shard provides the repo-wide key-to-shard partition function.
// Its one caller is internal/marketplane: the plane's auctioneer shards and
// ShardedBank.ShardFor, which counts a move as local or cross-shard, hash
// keys with it, so they agree on one hash.
package shard

// FNV-1a 64-bit, inlined so the per-key hash is allocation-free (the stdlib
// hash.Hash interface forces a heap-allocated state object per use).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Of maps a key (a host id, an account id) to one of n shards by FNV-1a
// hash. The assignment depends only on the key and n, never on insertion
// order, so adding hosts or accounts does not migrate existing ones between
// shards within a run.
func Of(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnvOffset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}
