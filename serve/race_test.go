//go:build race

package serve

// raceEnabled reports a race-detector build, where sync.Pool.Put drops a
// random quarter of the items it is given.
const raceEnabled = true
