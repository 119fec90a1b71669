package replay

import (
	"testing"
	"time"
)

// ExploreSchedule analyzes ar as AnalyzeLazy does, under the schedule
// explorer: one runner that pops a ready rank drawn from seed instead of
// the oldest, so the interleaving of the ranks' steps is a function of the
// seed.
func ExploreSchedule(ar *LazyArchive, cfg Config, seed int64) (*Result, error) {
	exploreSeed = &seed
	defer func() { exploreSeed = nil }()
	return AnalyzeLazy(ar, cfg)
}

// FanoutTraces is the multi-receiver input of live_test.go.
var FanoutTraces = fanoutTraces

// setEmitEvery sets the live-session drain period until t ends: a
// millisecond for a test that waits on a mid-run event, an hour for one
// that drains by hand.
func setEmitEvery(t testing.TB, d time.Duration) {
	old := emitEvery
	emitEvery = d
	t.Cleanup(func() { emitEvery = old })
}
