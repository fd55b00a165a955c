//go:build !race

package fauxbook

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
