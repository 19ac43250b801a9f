//go:build !race

package inject

const raceEnabled = false
