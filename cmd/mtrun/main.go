// mtrun executes a measured workload on the simulated metacomputer and
// writes the per-metahost experiment archives (local trace files) to
// disk, one subdirectory per metahost file system:
//
//	mtrun -workload metatrace -config exp1 -seed 42 -out ./run1
//	mtrun -workload clockbench -rounds 300 -out ./run2
//
// Analyze the result with mtanalyze.
package main

import (
	"flag"
	"fmt"
	"path/filepath"

	"metascope"
	"metascope/internal/apps/clockbench"
	"metascope/internal/apps/metatrace"
	"metascope/internal/archive"
	"metascope/internal/measure"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/topology"
	"metascope/internal/trace"
)

func run(cli *obs.CLIConfig, workload, config string, seed int64, out string, rounds, steps int, format trace.Format) error {
	var topo *topology.Metacomputer
	var place *topology.Placement
	switch config {
	case "exp1":
		topo = metascope.VIOLA()
		place = metascope.ViolaExperiment1Placement(topo)
	case "exp2":
		topo = metascope.IBMPower()
		place = metascope.IBMExperiment2Placement(topo)
	default:
		return fmt.Errorf("unknown config %q (want exp1|exp2)", config)
	}

	rec := cli.Recorder()
	e := metascope.NewExperiment(workload, topo, place, seed)
	e.Obs = rec
	e.TraceFormat = format
	if err := e.Build(); err != nil {
		return err
	}
	// Replace the in-memory mounts with on-disk archives.
	mounts := archive.NewMounts()
	for _, mh := range topo.Metahosts {
		fs, err := archive.NewDirFS(filepath.Join(out, mh.Name))
		if err != nil {
			return err
		}
		mounts.Mount(mh.ID, fs)
	}
	e.UseMounts(mounts)

	var body func(m *measure.M)
	switch workload {
	case "metatrace":
		params := metatrace.Default(place.N() / 2)
		if steps > 0 {
			params.Steps = steps
		}
		var err error
		params, err = metatrace.Setup(e.World(), params)
		if err != nil {
			return err
		}
		body = func(m *measure.M) { metatrace.Body(m, params) }
	case "clockbench":
		params := clockbench.Default()
		if rounds > 0 {
			params.Rounds = rounds
		}
		body = func(m *measure.M) { clockbench.Body(m, params) }
	default:
		return fmt.Errorf("unknown workload %q (want metatrace|clockbench)", workload)
	}

	if err := e.Run(body); err != nil {
		return err
	}
	fmt.Printf("measured %q on %s: %d processes, %.1f s virtual time\n",
		workload, topo.Name, place.N(), e.Engine().Now())
	fmt.Printf("archives written under %s (dir %s)\n", out, e.ArchiveDir)
	fmt.Printf("analyze with: mtanalyze -in %s -archive %s -n %d\n", out, e.ArchiveDir, place.N())
	return nil
}

func main() {
	cli := obs.RegisterCLIFlags("mtrun", flag.CommandLine, nil)
	cli.FlightArchive = replay.WriteFlightArchive // -trace-out can dogfood the archive format
	workload := flag.String("workload", "metatrace", "workload: metatrace | clockbench")
	config := flag.String("config", "exp1", "placement: exp1 (VIOLA, 3 metahosts) | exp2 (IBM, 1 metahost)")
	seed := flag.Int64("seed", 42, "simulation seed")
	out := flag.String("out", "archive", "output directory (one subdirectory per metahost)")
	rounds := flag.Int("rounds", 0, "clockbench rounds override")
	steps := flag.Int("steps", 0, "metatrace coupling steps override")
	formatStr := flag.String("format", "", "trace file format: v1 | v2 (default: v2)")
	flag.Parse()
	cli.Start()

	format, err := trace.ParseFormat(*formatStr)
	if err == nil {
		err = run(cli, *workload, *config, *seed, *out, *rounds, *steps, format)
	}
	if ferr := cli.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		obs.Fatal("mtrun failed", "err", err)
	}
}
