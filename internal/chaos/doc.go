// Package chaos holds the end-to-end fault-tolerance test of the grid market:
// a full bank + cluster + agent + ARC stack, built by box.New with Churn set,
// so every host crashes and recovers throughout the run (exponential
// MTTF/MTTR, one seeded stream per host). `go test ./internal/chaos` (and the
// `make chaos` target) address it directly.
//
// The test is deterministic: the churn schedule is drawn from the world's
// seed, selectable with `-chaos.seed` (default 1), e.g.
//
//	go test -race ./internal/chaos -args -chaos.seed=7
//
// Its invariants are the whole point of the fault-tolerance layer: with at
// least 20% of hosts failing during the run, every submitted job still
// reaches a terminal state (finished, or failed with its unspent budget
// refunded), every job sub-account drains to zero, and the bank's total
// money supply is exactly conserved.
package chaos
