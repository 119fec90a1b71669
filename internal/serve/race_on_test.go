//go:build race

package serve

// raceEnabled: the race detector instruments allocation and makes
// sync.Pool drop what it is handed at random, so the tests that count a
// path's own bytes skip under it; script/check.sh runs them without.
const raceEnabled = true
