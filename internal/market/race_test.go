//go:build race

package market

// raceEnabled reports that the race detector instruments this build.
const raceEnabled = true
