package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"metascope/internal/archive"
	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/vclock"
)

// archiveIn holds the -in/-archive/-scheme flags analyze and timeline
// share: an on-disk archive tree and the synchronization to read it
// under.
type archiveIn struct {
	in, dir, scheme string
}

// register defines the three flags on fs; archiveHelp is the verb's
// help text for -archive.
func (a *archiveIn) register(fs *flag.FlagSet, archiveHelp string) {
	fs.StringVar(&a.in, "in", "archive", "input directory (one subdirectory per metahost)")
	fs.StringVar(&a.dir, "archive", "", archiveHelp)
	fs.StringVar(&a.scheme, "scheme", "hier", "time-stamp synchronization: flat1 | flat2 | hier")
}

// mount parses -scheme and mounts the tree under -in, one metahost per
// subdirectory, resolving an empty -archive to the experiment found
// there.
func (a *archiveIn) mount() (*archive.Mounts, []int, string, vclock.Scheme, error) {
	scheme, err := vclock.ParseScheme(a.scheme)
	if err != nil {
		return nil, nil, "", scheme, err
	}
	mounts, metahosts, dir, err := archive.MountTree(a.in, a.dir)
	return mounts, metahosts, dir, scheme, err
}

// defaultOutputPath resolves the -o flag: an empty value composes
// <in>/analysis.cube with filepath.Join so separators are correct on
// every platform and a trailing slash on -in does not double up.
func defaultOutputPath(in, out string) string {
	if out != "" {
		return out
	}
	return filepath.Join(in, "analysis.cube")
}

// analyzeVerb is analyze: it runs the parallel replay analysis over an
// on-disk experiment archive produced by run or gen -out and writes the
// resulting analysis report (cube file):
//
//	metascope analyze -in ./run1 -archive epik_metatrace -scheme hier -o run1.cube
//
// The -in directory holds one subdirectory per metahost file system;
// each analysis process reads only the local trace files of its ranks,
// exactly as on a metacomputer without a shared file system.
func analyzeVerb(fs *flag.FlagSet) verbFunc {
	var a archiveIn
	a.register(fs, "experiment archive directory name, e.g. epik_metatrace (default: autodetect)")
	out := fs.String("o", "", "write the cube report to this file (default: <in>/analysis.cube)")
	profileOut := fs.String("profile-out", "", "write the time-resolved severity profile to this file (.csv for CSV, JSON otherwise)")
	phasesOut := fs.String("phases-out", "", "write the detected phase profile to this file (.csv for CSV, JSON otherwise)")
	profileBuckets := fs.Int("profile-buckets", 0, "bucket count of the time-resolved profile (default 64)")
	return func(ctx context.Context, _ []string, stdout io.Writer) error {
		mounts, metahosts, dir, scheme, err := a.mount()
		if err != nil {
			return err
		}
		rec := obs.Default
		rec.Log.Debug("archives mounted", "in", a.in, "archive", dir, "metahosts", len(metahosts))
		res, err := replay.AnalyzeArchiveContext(ctx, mounts, metahosts, dir, replay.Config{
			Scheme:         scheme,
			Title:          fmt.Sprintf("%s (%v)", dir, scheme),
			Obs:            rec,
			ProfileBuckets: *profileBuckets,
		})
		if err != nil {
			return err
		}

		span := rec.Phases.Start("render")
		fmt.Fprintf(stdout, "replayed %d messages and %d collective instances\n", res.Messages, res.Collectives)
		fmt.Fprintf(stdout, "clock condition violations: %d\n\n", res.Violations)
		fmt.Fprint(stdout, cube.RenderFindings(res.Report.Findings(5, 0.5)))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.FormatCommMatrix())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Report.RenderMetricTree())
		span.End()

		target := defaultOutputPath(a.in, *out)
		if err := writeFile(target, res.Report.Write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nreport written to %s (render with metascope print)\n", target)

		if *profileOut != "" {
			if err := writeArtifact(*profileOut, res.Profile); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "time-resolved profile (%d series, %d buckets of %.3gs) written to %s\n",
				len(res.Profile.Series), res.Profile.Buckets, res.Profile.BucketWidth, *profileOut)
		}

		if *phasesOut != "" {
			if err := writeArtifact(*phasesOut, res.Phases); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "phase profile (%d phases, period %d) written to %s (compare with metascope diff -phases)\n",
				len(res.Phases.Phases), res.Phases.Period, *phasesOut)
		}
		return nil
	}
}
