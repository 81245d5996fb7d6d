//go:build race

package pager

// raceEnabled reports a race-detector build: sync.Pool drops entries at
// random and instrumentation allocates, so allocation tests skip.
const raceEnabled = true
