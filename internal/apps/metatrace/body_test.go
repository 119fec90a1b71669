package metatrace

import (
	"testing"

	"metascope/internal/archive"
	"metascope/internal/measure"
	"metascope/internal/mmpi"
	"metascope/internal/sim"
	"metascope/internal/topology"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// runSmall executes the full MetaTrace body on a reduced world (4
// Trace + 4 Partrace ranks over two metahosts) and returns the traces.
func runSmall(t *testing.T, p Params) []*trace.Trace {
	t.Helper()
	mc := topology.VIOLA()
	place := topology.NewPlacement(mc)
	place.MustPlace(1, 0, 1, 4) // Trace on FH-BRS
	place.MustPlace(2, 0, 2, 2) // Partrace on FZJ
	eng := sim.NewEngine(3)
	world := mmpi.NewWorld(eng, place)
	p.NT = 4
	p, err := Setup(world, p)
	if err != nil {
		t.Fatal(err)
	}
	mounts := archive.NewMounts()
	for _, m := range mc.Metahosts {
		mounts.Mount(m.ID, archive.NewMemFS(m.Name))
	}
	cfg := measure.Config{
		ArchiveDir: "epik_mt",
		Mounts:     mounts,
		Clocks:     vclock.Generate(eng, mc),
		PingPongs:  4,
	}
	if _, err := measure.Run(world, cfg, func(m *measure.M) { Body(m, p) }); err != nil {
		t.Fatal(err)
	}
	var traces []*trace.Trace
	for rank := 0; rank < 8; rank++ {
		fs := mounts.For(place.Loc(rank).Metahost)
		data, err := archive.ReadFile(fs, archive.TraceFile("epik_mt", rank))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.DecodeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	return traces
}

func smallParams() Params {
	p := Default(4)
	p.Steps = 2
	p.CGIters = 5
	p.CGWork = 0.01
	p.FineWork = 0.05
	p.PartWork = 0.2
	p.SteerWork = 0.02
	p.FieldWork = 0.01
	p.FieldBytes = 8 << 20
	return p
}

func TestBodyProducesStructurallyValidTraces(t *testing.T) {
	traces := runSmall(t, smallParams())
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Trace ranks visit the solver functions; Partrace ranks the
	// tracking functions; never vice versa.
	for rank, tr := range traces {
		s := tr.Stats()
		isTrace := rank < 4
		if isTrace {
			if s.RegionVisits["cgiteration"] != 2 || s.RegionVisits["finelassdt"] != 2 {
				t.Errorf("rank %d: solver visits %v", rank, s.RegionVisits)
			}
			if s.RegionVisits["tracking"] != 0 {
				t.Errorf("rank %d: Trace rank ran Partrace code", rank)
			}
		} else {
			if s.RegionVisits["ReadVelFieldFromTrace"] != 2 || s.RegionVisits["tracking"] != 2 {
				t.Errorf("rank %d: tracking visits %v", rank, s.RegionVisits)
			}
			if s.RegionVisits["cgiteration"] != 0 {
				t.Errorf("rank %d: Partrace rank ran Trace code", rank)
			}
		}
	}
}

func TestBodyFieldTransferVolume(t *testing.T) {
	p := smallParams()
	traces := runSmall(t, p)
	// Every Trace rank sends its field chunk once per step.
	chunk := int64(p.FieldBytes / 4)
	for rank := 0; rank < 4; rank++ {
		s := traces[rank].Stats()
		wantMin := chunk * int64(p.Steps)
		if s.BytesSent < wantMin {
			t.Errorf("rank %d sent %d bytes, want at least %d (field chunks)", rank, s.BytesSent, wantMin)
		}
	}
	// Every Partrace rank receives them.
	for rank := 4; rank < 8; rank++ {
		s := traces[rank].Stats()
		if s.BytesRecv < chunk*int64(p.Steps) {
			t.Errorf("rank %d received %d bytes", rank, s.BytesRecv)
		}
	}
}

func TestBodyDetailControlsEventCount(t *testing.T) {
	coarse := runSmall(t, smallParams())
	fine := smallParams()
	fine.Detail = 8
	detailed := runSmall(t, fine)
	for rank := 0; rank < 4; rank++ { // only Trace ranks have detail regions
		c, d := len(coarse[rank].Events), len(detailed[rank].Events)
		if d <= c {
			t.Errorf("rank %d: detail=8 produced %d events vs %d at detail=1", rank, d, c)
		}
	}
}

func TestSetupValidatesWorldSize(t *testing.T) {
	mc := topology.VIOLA()
	place := topology.NewPlacement(mc)
	place.MustPlace(2, 0, 3, 2) // 6 ranks: not 2×NT for NT=4
	world := mmpi.NewWorld(sim.NewEngine(1), place)
	if _, err := Setup(world, Default(4)); err == nil {
		t.Fatal("mismatched world size accepted")
	}
}
