//go:build race

package search

// raceEnabled reports whether this test binary was built with the race
// detector, whose ~20x slowdown makes the exhaustive range sweeps sample
// fewer anchors per range.
const raceEnabled = true
