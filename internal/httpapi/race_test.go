//go:build race

package httpapi

// raceEnabled reports a -race build, where sync.Pool drops pooled values at
// random and allocation counts are not the program's.
const raceEnabled = true
