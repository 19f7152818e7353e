//go:build race

package core

// raceEnabled reports whether the race detector instruments the tests.
const raceEnabled = true
