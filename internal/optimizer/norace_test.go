//go:build !race

package optimizer

// raceEnabled reports a race-detector build, where allocation counts differ.
const raceEnabled = false
