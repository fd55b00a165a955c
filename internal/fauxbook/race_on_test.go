//go:build race

package fauxbook

// raceEnabled reports whether the race detector instruments this build.
// The allocation pins that depend on sync.Pool caching skip under it: the
// runtime deliberately randomizes pool reuse in race mode, so pooled
// paths allocate there by design, not by regression.
const raceEnabled = true
