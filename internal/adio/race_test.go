//go:build race

package adio

// raceEnabled reports a -race build: the race detector drops sync.Pool puts
// at random, and instruments allocation, so the bytes a run allocates are not
// the code's.
const raceEnabled = true
