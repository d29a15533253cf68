//go:build race

package cache

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation adds allocations of its own.
const raceEnabled = true
