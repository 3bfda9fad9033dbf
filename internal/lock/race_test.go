//go:build race

package lock

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and pool-dependent allocation ceilings cannot hold.
const raceEnabled = true
