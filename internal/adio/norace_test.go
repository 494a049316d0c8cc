//go:build !race

package adio

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
