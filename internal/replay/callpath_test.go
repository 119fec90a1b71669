package replay

import (
	"fmt"
	"math/rand"
	"testing"

	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// TestCallPathsMatchMapReference sweeps a trace whose main region has
// 1024 children, entered round after round in a new order each time, and
// whose recursive region nests 512 deep with a leaf call at every level,
// twice. The call paths the stepper assigns — ids, parents, regions, and
// the visits each id was credited with — must be those of a reference
// that keys a map by (parent, region), as cpID did before.
func TestCallPathsMatchMapReference(t *testing.T) {
	const width, depth = 1024, 512
	const recursive = width + 1
	regions := make([]trace.Region, width+2)
	for i := range regions {
		regions[i] = trace.Region{ID: trace.RegionID(i), Name: fmt.Sprintf("r%d", i)}
	}
	var events []trace.Event
	now := 0.0
	add := func(kind trace.EventKind, r trace.RegionID) {
		now++
		events = append(events, trace.Event{Kind: kind, Time: now, Region: r})
	}
	add(trace.KindEnter, 0)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		for _, c := range rng.Perm(width) {
			add(trace.KindEnter, trace.RegionID(1+c))
			add(trace.KindExit, trace.RegionID(1+c))
		}
	}
	for rep := 0; rep < 2; rep++ {
		for d := 0; d < depth; d++ {
			add(trace.KindEnter, recursive)
			leaf := trace.RegionID(1 + (d*7+rep)%width)
			add(trace.KindEnter, leaf)
			add(trace.KindExit, leaf)
		}
		for d := 0; d < depth; d++ {
			add(trace.KindExit, recursive)
		}
	}
	add(trace.KindExit, 0)
	tr := synth(0, 0, events, trace.CommDef{ID: 0, Ranks: []int32{0}})
	tr.Regions = regions

	type node struct {
		parent int
		region trace.RegionID
	}
	ref := map[node]int{}
	var want []node
	var visits []float64
	var stack []int
	for _, ev := range events {
		if ev.Kind == trace.KindExit {
			stack = stack[:len(stack)-1]
			continue
		}
		k := node{parent: -1, region: ev.Region}
		if len(stack) > 0 {
			k.parent = stack[len(stack)-1]
		}
		id, ok := ref[k]
		if !ok {
			id = len(want)
			ref[k] = id
			want = append(want, k)
			visits = append(visits, 0)
		}
		visits[id]++
		stack = append(stack, id)
	}

	cfg := Config{Scheme: vclock.FlatSingle, Title: "call paths", Obs: obs.NewRecorder()}.withDefaults(1)
	corr, err := BuildCorrections([]*trace.Trace{tr}, cfg.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newAnalyzer([]*trace.Trace{tr}, []*rankLog{newPreloadedRankLog(tr.Events, logCounts{})}, corr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.run()
	rr := a.results[0]
	if rr.err != nil {
		t.Fatal(rr.err)
	}
	if len(rr.paths) != len(want) {
		t.Fatalf("%d call paths, the reference has %d", len(rr.paths), len(want))
	}
	for id, p := range rr.paths {
		if (node{p.parent, p.region}) != want[id] || p.name != regions[p.region].Name {
			t.Fatalf("call path %d is (%d, %d) %q, the reference's is (%d, %d)", id, p.parent, p.region, p.name, want[id].parent, want[id].region)
		}
		if rr.acc[id].visits != visits[id] {
			t.Fatalf("call path %d credited with %v visits, the reference counts %v", id, rr.acc[id].visits, visits[id])
		}
	}
}
