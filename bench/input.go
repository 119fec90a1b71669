package main

import (
	"fmt"

	"metascope"
	"metascope/internal/apps/metatrace"
	"metascope/internal/archive"
	"metascope/internal/conformance"
	"metascope/internal/measure"
	"metascope/internal/scenario"
	"metascope/internal/serve"
	"metascope/internal/topology"
	"metascope/internal/trace"
)

// input is one generated archive. The program under test only ever
// sees the archive; the fields beside it are what the harness needs to
// drive and check it.
type input struct {
	name      string
	mounts    *archive.Mounts
	metahosts []int
	dir       string
	rankMH    []int // metahost of every rank, for the chunk protocol
	events    int
	bytes     int64
	digest    string

	// halo2d only: the compiled closed form and the factor converting
	// planted true-time delays into corrected severities.
	prog  *scenario.Program
	scale float64
}

// halo2dDoc is the scenario document of the communication-dominated
// input, sized at the DSL's ranks × phases ceiling. JSON rather than
// the YAML subset: both parse to the same Spec and JSON is the form
// the ROADMAP keeps.
const halo2dDoc = `{
  "name": "halo2d-bench", "kernel": "halo2d", "ranks": %d, "iterations": %d,
  "params": {"px": %d, "py": %d},
  "topology": {"preset": "conformance", "count": 4},
  "schedule": {"align": 6, "slack": 4}
}`

// buildInput generates the named input from seed through the normal
// measurement pipeline (simulate, instrument, encode v2 trace files
// into per-metahost in-memory file systems).
func buildInput(name string, seed int64, small bool) (*input, error) {
	var e *metascope.Experiment
	in := &input{name: name}
	switch name {
	case "metatrace":
		topo := metascope.VIOLA()
		place, p := metascope.ViolaExperiment1Placement(topo), metatrace.Default(16)
		p.Steps, p.Detail = 40, 32
		if small {
			// The same three metahosts with 8 ranks instead of 32.
			place, p = topology.NewPlacement(topo), metatrace.Default(4)
			place.MustPlace(1, 0, 1, 2)
			place.MustPlace(0, 0, 1, 2)
			place.MustPlace(2, 0, 2, 2)
			p.Steps, p.CGIters = 1, 2
		}
		e = metascope.NewExperiment("metatrace", topo, place, seed)
		e.TraceFormat = trace.FormatV2
		if err := e.Build(); err != nil {
			return nil, err
		}
		params, err := metatrace.Setup(e.World(), p)
		if err != nil {
			return nil, err
		}
		if err := e.Run(func(m *measure.M) { metatrace.Body(m, params) }); err != nil {
			return nil, err
		}
	case "halo2d":
		ranks, iters, px, py := 192, 64, 16, 12
		if small {
			ranks, iters, px, py = 12, 2, 4, 3
		}
		prog, err := scenario.Load([]byte(fmt.Sprintf(halo2dDoc, ranks, iters, px, py)))
		if err != nil {
			return nil, err
		}
		prog.Spec.Format = trace.FormatV2
		if e, err = prog.Run("halo2d", seed); err != nil {
			return nil, err
		}
		in.prog, in.scale = prog, conformance.MasterScale(e)
	default:
		return nil, fmt.Errorf("unknown input %q", name)
	}
	in.mounts, in.metahosts, in.dir = e.Mounts(), e.Place.MetahostsUsed(), e.ArchiveDir
	in.rankMH = make([]int, e.Place.N())
	for r := range in.rankMH {
		in.rankMH[r] = e.Place.Loc(r).Metahost
	}
	blobs, err := in.readBlobs()
	if err != nil {
		return nil, err
	}
	for _, b := range blobs {
		br, err := trace.NewBlockReader(b, nil)
		if err != nil {
			return nil, err
		}
		in.events += br.Total()
		in.bytes += int64(len(b))
	}
	if in.digest, err = serve.Digest(in.mounts, in.metahosts, in.dir); err != nil {
		return nil, err
	}
	return in, nil
}

// readBlobs reads every rank's trace file through the archive layer.
func (in *input) readBlobs() ([][]byte, error) {
	blobs := make([][]byte, len(in.rankMH))
	for r, mh := range in.rankMH {
		b, err := archive.ReadFile(in.mounts.For(mh), archive.TraceFile(in.dir, r))
		if err != nil {
			return nil, err
		}
		blobs[r] = b
	}
	return blobs, nil
}
