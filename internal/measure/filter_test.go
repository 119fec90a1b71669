package measure

import (
	"strings"
	"testing"

	"metascope/internal/trace"
)

func TestRegionFilterSuppressesEvents(t *testing.T) {
	r := newRig(t, 21, false)
	cfg := r.config()
	cfg.FilterRegions = []string{"tinyhelper"}
	_, err := Run(r.world, cfg, func(m *M) {
		m.Enter("main")
		for i := 0; i < 50; i++ {
			m.Enter("tinyhelper") // filtered: no events
			m.Compute("", 0.0001)
			m.Exit()
		}
		m.Enter("solver") // not filtered
		m.Compute("", 0.01)
		m.Exit()
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := r.loadTrace(t, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, reg := range tr.Regions {
		if reg.Name == "tinyhelper" {
			t.Fatalf("filtered region leaked into the region table")
		}
	}
	// Exactly main + solver enters.
	if got := tr.CountKind(trace.KindEnter); got != 2 {
		t.Fatalf("%d enter events, want 2", got)
	}
	// The filtered helpers' time stays inside main: the trace still
	// spans the whole run.
	if tr.Duration() < 0.01 {
		t.Fatalf("duration %g implausibly small", tr.Duration())
	}
}

func TestRegionFilterKeepsNestingBalanced(t *testing.T) {
	r := newRig(t, 22, false)
	cfg := r.config()
	cfg.FilterRegions = []string{"outerfiltered"}
	_, err := Run(r.world, cfg, func(m *M) {
		m.Enter("main")
		m.Enter("outerfiltered") // filtered…
		m.Enter("inner")         // …but the nested region is kept
		m.Compute("", 0.001)
		m.Exit()
		m.Exit()
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := r.loadTrace(t, 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var names []string
	regions := trace.NewRegionTable(tr.Regions)
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindEnter {
			names = append(names, regions.Lookup(ev.Region).Name)
		}
	}
	if strings.Join(names, ",") != "main,inner" {
		t.Fatalf("enter sequence %v", names)
	}
}

func TestRegionFilterNeverFiltersMPI(t *testing.T) {
	r := newRig(t, 23, false)
	cfg := r.config()
	cfg.FilterRegions = []string{"MPI_Barrier", "main"}
	_, err := Run(r.world, cfg, func(m *M) {
		m.Enter("main") // filtered user region
		m.World().Barrier()
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := r.loadTrace(t, 0)
	// The barrier is an MPI region: it must survive even though its
	// name appears in the filter list.
	found := false
	for _, reg := range tr.Regions {
		if reg.Name == "MPI_Barrier" {
			found = true
		}
	}
	if !found {
		t.Fatalf("MPI region was filtered")
	}
	if tr.CountKind(trace.KindCollExit) != 1 {
		t.Fatalf("collective event missing")
	}
}
