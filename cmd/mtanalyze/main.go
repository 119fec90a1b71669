// mtanalyze runs the parallel replay analysis over an on-disk
// experiment archive produced by mtrun and writes the resulting
// analysis report (cube file):
//
//	mtanalyze -in ./run1 -archive epik_metatrace -scheme hier -o run1.cube
//
// The -in directory holds one subdirectory per metahost file system;
// each analysis process reads only the local trace files of its ranks,
// exactly as on a metacomputer without a shared file system.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"metascope/internal/archive"
	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/vclock"
)

// defaultOutputPath resolves the -o flag: an empty value composes
// <in>/analysis.cube with filepath.Join so separators are correct on
// every platform and a trailing slash on -in does not double up.
func defaultOutputPath(in, out string) string {
	if out != "" {
		return out
	}
	return filepath.Join(in, "analysis.cube")
}

func run(cli *obs.CLIConfig, in, dir, schemeFlag, out, profileOut, phasesOut string, profileBuckets int) error {
	scheme, err := vclock.ParseScheme(schemeFlag)
	if err != nil {
		return err
	}
	mounts, metahosts, dir, err := archive.MountTree(in, dir)
	if err != nil {
		return err
	}
	rec := cli.Recorder()
	rec.Log.Debug("archives mounted", "in", in, "archive", dir, "metahosts", len(metahosts))

	res, err := replay.AnalyzeArchive(mounts, metahosts, dir, replay.Config{
		Scheme:         scheme,
		Title:          fmt.Sprintf("%s (%v)", dir, scheme),
		Obs:            rec,
		ProfileBuckets: profileBuckets,
	})
	if err != nil {
		return err
	}

	span := rec.Phases.Start("render")
	fmt.Printf("replayed %d messages and %d collective instances\n", res.Messages, res.Collectives)
	fmt.Printf("clock condition violations: %d\n\n", res.Violations)
	fmt.Print(cube.RenderFindings(res.Report.Findings(5, 0.5)))
	fmt.Println()
	fmt.Print(res.FormatCommMatrix())
	fmt.Println()
	fmt.Print(res.Report.RenderMetricTree())
	span.End()

	target := defaultOutputPath(in, out)
	f, err := os.Create(target)
	if err != nil {
		return err
	}
	if err := res.Report.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nreport written to %s (render with mtprint)\n", target)

	if profileOut != "" {
		if err := res.Profile.WriteFile(profileOut); err != nil {
			return err
		}
		fmt.Printf("time-resolved profile (%d series, %d buckets of %.3gs) written to %s\n",
			len(res.Profile.Series), res.Profile.Buckets, res.Profile.BucketWidth, profileOut)
	}

	if phasesOut != "" {
		if err := res.Phases.WriteFile(phasesOut); err != nil {
			return err
		}
		fmt.Printf("phase profile (%d phases, period %d) written to %s (compare with mtdiff -phases)\n",
			len(res.Phases.Phases), res.Phases.Period, phasesOut)
	}
	return nil
}

func main() {
	cli := obs.RegisterCLIFlags("mtanalyze", flag.CommandLine, nil)
	cli.FlightArchive = replay.WriteFlightArchive // -trace-out can dogfood the archive format
	in := flag.String("in", "archive", "input directory (one subdirectory per metahost)")
	dir := flag.String("archive", "", "experiment archive directory name, e.g. epik_metatrace (default: autodetect)")
	schemeFlag := flag.String("scheme", "hier", "time-stamp synchronization: flat1 | flat2 | hier")
	out := flag.String("o", "", "write the cube report to this file (default: <in>/analysis.cube)")
	profileOut := flag.String("profile-out", "", "write the time-resolved severity profile to this file (.csv for CSV, JSON otherwise)")
	phasesOut := flag.String("phases-out", "", "write the detected phase profile to this file (.csv for CSV, JSON otherwise)")
	profileBuckets := flag.Int("profile-buckets", 0, "bucket count of the time-resolved profile (default 64)")
	flag.Parse()
	cli.Start()

	err := run(cli, *in, *dir, *schemeFlag, *out, *profileOut, *phasesOut, *profileBuckets)
	if ferr := cli.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		obs.Fatal("mtanalyze failed", "err", err)
	}
}
