//go:build !race

package eval

// raceEnabled reports whether the tests run under the race detector,
// whose runtime adds a few allocations of its own at random.
const raceEnabled = false
