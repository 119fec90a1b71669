package replay_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/vclock"
)

// TestScheduleExploration: which rank the scheduler steps next is not
// part of the answer. Every library scenario and the multi-receiver
// fan-out are analysed under a hundred seeded schedules — one runner
// popping a drawn ready rank — and each comes to the FIFO run's cube,
// profile and phase bytes, or to its error in the same words.
func TestScheduleExploration(t *testing.T) {
	const seeds = 100
	type input struct {
		name string
		ar   *replay.LazyArchive
	}
	inputs := []input{{"fanout", &replay.LazyArchive{Traces: replay.FanoutTraces()}}}
	for _, name := range scenario.LibraryNames() {
		prog, err := scenario.LoadLibrary(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := prog.Run(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := e.TracesLazy()
		if err != nil && len(prog.Spec.Faults.Truncate) > 0 {
			t.Logf("%s: the loader refuses the truncated archive, no schedule to explore: %v", name, err)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, ar})
	}
	steps := regexp.MustCompile(`msg="replay scheduled" runners=1 steps=(\d+) `)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			cfg := replay.Config{Scheme: vclock.Hierarchical, Title: in.name, Obs: obs.NewRecorder()}
			want := render(replay.AnalyzeLazy(in.ar, cfg))
			var logged strings.Builder
			cfg.Obs.Log = obs.NewLogger(&logged)
			cfg.Obs.Log.SetLevel(obs.LevelDebug)
			for seed := int64(1); seed <= seeds; seed++ {
				if got := render(replay.ExploreSchedule(in.ar, cfg, seed)); got != want {
					t.Fatalf("seed %d: the explored schedule's analysis differs from the FIFO run's:\n%.300s\nwant\n%.300s", seed, got, want)
				}
			}
			// The explorer ran every analysis on one runner; on the fan-out,
			// whose receivers park or not depending on whether the sender
			// ran first, the steps taken vary with the seed.
			counts := map[string]bool{}
			for _, m := range steps.FindAllStringSubmatch(logged.String(), -1) {
				counts[m[1]] = true
			}
			n := strings.Count(logged.String(), `msg="replay scheduled"`)
			if one := len(steps.FindAllString(logged.String(), -1)); n != seeds || one != seeds {
				t.Errorf("%d explored analyses logged their schedule, %d of them on one runner, want %d", n, one, seeds)
			}
			if in.name == "fanout" && len(counts) < 2 {
				t.Errorf("%d seeds took the same number of steps: the schedule was not explored", seeds)
			}
		})
	}
}

// render is an analysis's outcome as one comparable string: the cube,
// profile and phase artifacts, or "error: " and the error.
func render(res *replay.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b bytes.Buffer
	for _, w := range []func() error{
		func() error { return res.Report.Write(&b) },
		func() error { return res.Profile.WriteJSON(&b) },
		func() error { return res.Phases.WriteJSON(&b) },
	} {
		if err := w(); err != nil {
			return "error: " + err.Error()
		}
	}
	return b.String()
}
