//go:build race

package bank

// raceEnabled reports a -race build, whose instrumentation allocates where
// the program does not, so allocation counts are not the program's.
const raceEnabled = true
