//go:build !race

package bank

const raceEnabled = false
