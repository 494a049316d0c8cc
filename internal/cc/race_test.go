//go:build race

package cc

// raceEnabled reports a -race build: the race detector drops sync.Pool puts
// at random, so the bytes a run allocates are not the code's.
const raceEnabled = true
