package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"metascope"
	"metascope/internal/apps/clockbench"
	"metascope/internal/apps/metatrace"
	"metascope/internal/archive"
	"metascope/internal/measure"
	"metascope/internal/obs"
	"metascope/internal/topology"
	"metascope/internal/trace"
)

// runVerb is run: it executes a measured workload on the simulated
// metacomputer and writes the per-metahost experiment archives (local
// trace files) to disk, one subdirectory per metahost file system:
//
//	metascope run -workload metatrace -config exp1 -seed 42 -out ./run1
//	metascope run -workload clockbench -rounds 300 -out ./run2
//
// Analyze the result with metascope analyze; run prints the command.
func runVerb(fs *flag.FlagSet) verbFunc {
	workload := fs.String("workload", "metatrace", "workload: metatrace | clockbench")
	config := fs.String("config", "exp1", "placement: exp1 (VIOLA, 3 metahosts) | exp2 (IBM, 1 metahost)")
	seed := fs.Int64("seed", 42, "simulation seed")
	out := fs.String("out", "archive", "output directory (one subdirectory per metahost)")
	rounds := fs.Int("rounds", 0, "clockbench rounds override")
	steps := fs.Int("steps", 0, "metatrace coupling steps override")
	formatStr := fs.String("format", "", "trace file format: v1 | v2 (default: v2)")
	return func(ctx context.Context, _ []string, stdout io.Writer) error {
		format, err := trace.ParseFormat(*formatStr)
		if err != nil {
			return err
		}
		var topo *topology.Metacomputer
		var place *topology.Placement
		switch *config {
		case "exp1":
			topo = metascope.VIOLA()
			place = metascope.ViolaExperiment1Placement(topo)
		case "exp2":
			topo = metascope.IBMPower()
			place = metascope.IBMExperiment2Placement(topo)
		default:
			return fmt.Errorf("unknown config %q (want exp1|exp2)", *config)
		}

		e := metascope.NewExperiment(*workload, topo, place, *seed)
		e.Obs = obs.Default
		e.TraceFormat = format
		if err := e.Build(); err != nil {
			return err
		}
		defer interruptible(ctx, e.Engine())()
		// Replace the in-memory mounts with on-disk archives.
		mounts, err := mountDirs(*out, topo)
		if err != nil {
			return err
		}
		e.UseMounts(mounts)

		var body func(m *measure.M)
		switch *workload {
		case "metatrace":
			params := metatrace.Default(place.N() / 2)
			if *steps > 0 {
				params.Steps = *steps
			}
			params, err = metatrace.Setup(e.World(), params)
			if err != nil {
				return err
			}
			body = func(m *measure.M) { metatrace.Body(m, params) }
		case "clockbench":
			params := clockbench.Default()
			if *rounds > 0 {
				params.Rounds = *rounds
			}
			body = func(m *measure.M) { clockbench.Body(m, params) }
		default:
			return fmt.Errorf("unknown workload %q (want metatrace|clockbench)", *workload)
		}

		if err := e.Run(body); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "measured %q on %s: %d processes, %.1f s virtual time\n",
			*workload, topo.Name, place.N(), e.Engine().Now())
		fmt.Fprintf(stdout, "archives written under %s (dir %s)\n", *out, e.ArchiveDir)
		fmt.Fprintf(stdout, "analyze with: metascope analyze -in %s -archive %s\n", *out, e.ArchiveDir)
		return nil
	}
}

// mountDirs mounts one on-disk directory per metahost of topo under
// root, named after the metahost: the layout analyze reads with -in.
// run and gen -out both write through it.
func mountDirs(root string, topo *topology.Metacomputer) (*archive.Mounts, error) {
	mounts := archive.NewMounts()
	for _, mh := range topo.Metahosts {
		fs, err := archive.NewDirFS(filepath.Join(root, mh.Name))
		if err != nil {
			return nil, err
		}
		mounts.Mount(mh.ID, fs)
	}
	return mounts, nil
}
