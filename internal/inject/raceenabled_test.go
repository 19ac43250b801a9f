//go:build race

package inject

// raceEnabled reports whether the race detector is compiled in; the
// full-plan skip gate runs only without it (make prune-soundness), where
// it takes seconds instead of a minute.
const raceEnabled = true
