//go:build !race

package core

// raceEnabled reports whether the tests run under the race detector,
// whose sync.Pool drops a quarter of what it is handed, at random.
const raceEnabled = false
