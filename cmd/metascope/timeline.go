package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"metascope/internal/obs"
	"metascope/internal/profile"
	"metascope/internal/replay"
)

// timelineVerb is timeline: it exports a synchronized global timeline
// of an experiment archive in Chrome trace_event JSON (open in Perfetto
// or chrome://tracing) — the VAMPIR-style manual-inspection view next to
// analyze's automatic pattern search:
//
//	metascope timeline -in run1 -scheme hier -o timeline.json
//
// Exporting the same archive with -scheme flat1 makes clock-condition
// violations visible as message arrows pointing backwards in time.
func timelineVerb(fs *flag.FlagSet) verbFunc {
	var a archiveIn
	a.register(fs, "experiment archive directory name (default: autodetect)")
	out := fs.String("o", "timeline.json", "output JSON file")
	counters := fs.Bool("counters", false, "run the pattern search and merge wait-state severity counter tracks into the timeline")
	return func(ctx context.Context, _ []string, stdout io.Writer) error {
		mounts, metahosts, dir, scheme, err := a.mount()
		if err != nil {
			return err
		}
		rec := obs.Default
		traces, err := replay.LoadArchiveObs(mounts, metahosts, dir, rec)
		if err != nil {
			return err
		}
		// With -counters the full pattern search runs first so the detected
		// wait-state severities ride along as Perfetto counter tracks above
		// the event rows.
		var prof *profile.Profile
		if *counters {
			res, err := replay.AnalyzeContext(ctx, traces, replay.Config{
				Scheme: scheme,
				Title:  fmt.Sprintf("%s (%v)", dir, scheme),
				Obs:    rec,
			})
			if err != nil {
				return err
			}
			prof = res.Profile
		}
		span := rec.Phases.Start("render")
		err = writeFile(*out, func(w io.Writer) error {
			return replay.ExportTimelineProfile(w, traces, scheme, prof)
		})
		span.End()
		if err != nil {
			return err
		}
		events := 0
		for _, t := range traces {
			events += len(t.Events)
		}
		fmt.Fprintf(stdout, "timeline with %d trace events (%d processes, %v) written to %s\n",
			events, len(traces), scheme, *out)
		return nil
	}
}
