package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"

	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/phase"
	"metascope/internal/profile"
)

// runProfile compares two profile artifacts interval by interval and
// prints, per series, the total difference and the single interval
// where the runs diverge most — the time-resolved answer to "where did
// run b get slower".
func runProfile(out string, args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: metascope diff -profile [-o out.json] a-profile.json b-profile.json")
	}
	a, err := readFile(args[0], profile.Read)
	if err != nil {
		return err
	}
	b, err := readFile(args[1], profile.Read)
	if err != nil {
		return err
	}
	d, err := profile.Diff(a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "profile diff: %s\n", d.Title)
	fmt.Fprintf(w, "%d buckets of %gs from t=%gs\n\n", d.Buckets, d.BucketWidth, d.Origin)
	fmt.Fprintf(w, "  %-45s %-12s %4s %12s %18s\n", "metric", "metahost", "rank", "total Δ", "max |Δ| interval")
	for _, s := range d.Series {
		total, maxAbs, maxIdx := 0.0, 0.0, 0
		for i, v := range s.Values {
			total += v
			if math.Abs(v) > maxAbs {
				maxAbs, maxIdx = math.Abs(v), i
			}
		}
		if total == 0 && maxAbs == 0 {
			continue
		}
		left := d.Origin + float64(maxIdx)*d.BucketWidth
		fmt.Fprintf(w, "  %-45s %-12s %4d %+12.4g %+9.4g @ [%.4g, %.4g)s\n",
			s.Metric, metahostLabel(s.MetahostName, s.Metahost), s.Rank, total, s.Values[maxIdx], left, left+d.BucketWidth)
	}
	if out != "" {
		if err := writeArtifact(out, d); err != nil {
			return err
		}
		fmt.Fprintf(w, "\ndiff profile written to %s\n", out)
	}
	return nil
}

// runPhases compares two phase-profile artifacts after aligning their
// phases and reports the cells whose severity regressed — the
// per-iteration answer to "which phase of run b got slower". With
// -json the full machine-readable comparison goes to stdout; -o
// writes it to a file in either mode.
func runPhases(out string, jsonOut bool, threshold, minDelta float64, args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: metascope diff -phases [-json] [-threshold X] [-min-delta S] [-o out.json] a-phases.json b-phases.json")
	}
	a, err := readFile(args[0], phase.Read)
	if err != nil {
		return err
	}
	b, err := readFile(args[1], phase.Read)
	if err != nil {
		return err
	}
	cmp := phase.Compare(a, b, threshold, minDelta)
	encode := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(cmp)
	}
	if jsonOut {
		if err := encode(w); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "phase diff: %s vs %s\n", a.Title, b.Title)
		fmt.Fprintf(w, "%d vs %d phases, %d aligned (%s mode)\n\n", cmp.APhases, cmp.BPhases, len(cmp.Pairs), cmp.Mode)
		fmt.Fprintf(w, "  %-6s %-45s %-12s %12s %12s %8s\n", "phase", "family", "metahost", "base", "cur", "ratio")
		for _, r := range cmp.Rows {
			if !r.Regressed {
				continue
			}
			ph := fmt.Sprintf("%d", r.PhaseB)
			if r.PhaseA != r.PhaseB {
				ph = fmt.Sprintf("%d>%d", r.PhaseA, r.PhaseB)
			}
			ratio := "new"
			if r.Base > 0 {
				ratio = fmt.Sprintf("%.2fx", r.Ratio)
			}
			fmt.Fprintf(w, "  %-6s %-45s %-12s %12.4g %12.4g %8s\n",
				ph, r.Family, metahostLabel(r.MetahostName, r.Metahost), r.Base, r.Cur, ratio)
		}
		if cmp.Regressions == 0 {
			fmt.Fprintf(w, "  (none)\n")
		}
		fmt.Fprintf(w, "\n%d per-phase regressions (threshold %gx, min delta %gs)\n",
			cmp.Regressions, cmp.Threshold, cmp.MinDelta)
	}
	if out != "" {
		if err := writeFile(out, encode); err != nil {
			return err
		}
		if !jsonOut {
			fmt.Fprintf(w, "comparison written to %s\n", out)
		}
	}
	return nil
}

func diffReports(op, out string, args []string, w io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: metascope diff [-op diff|merge|mean] [-o out.cube] a.cube b.cube [more.cube ...]")
	}
	reports := make([]*cube.Report, len(args))
	for i, p := range args {
		r, err := readFile(p, cube.Read)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		reports[i] = r
	}

	var res *cube.Report
	var err error
	switch op {
	case "diff":
		if len(reports) != 2 {
			return fmt.Errorf("diff needs exactly two reports")
		}
		res = cube.Diff(reports[0], reports[1])
	case "merge":
		res = reports[0]
		for _, r := range reports[1:] {
			res = cube.Merge(res, r)
		}
	case "mean":
		res, err = cube.Mean(reports...)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown op %q", op)
	}

	span := obs.Default.Phases.Start("render")
	fmt.Fprintf(w, "result: %s\n\n", res.Title)
	// For a diff, percentages against "total time" are meaningless;
	// print per-metric totals instead.
	for i := range res.Metrics {
		total := res.MetricTotal(i)
		if total == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-55s %+12.3f %s\n", res.Metrics[i].Key, total, res.Metrics[i].Unit)
	}
	span.End()
	if out != "" {
		if err := writeFile(out, res.Write); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwritten to %s\n", out)
	}
	return nil
}

// diffVerb is diff: it applies the cross-experiment algebra (Song et
// al., named as future work in §6 of the paper) to analysis reports:
//
//	metascope diff -op diff  a.cube b.cube        # a − b
//	metascope diff -op merge a.cube b.cube        # a + b
//	metascope diff -op mean  a.cube b.cube c.cube # cell-wise mean
//
// The result is printed as a metric tree and optionally written with
// -o for further inspection with print.
//
// With -profile it instead compares two time-resolved severity
// profiles (analyze -profile-out) interval by interval:
//
//	metascope diff -profile a-profile.json b-profile.json
//
// With -phases it compares two phase profiles (analyze -phases-out)
// after aligning their detected phases — by signature when the runs
// have the same shape, by subsequence matching when phases appeared
// or disappeared — and flags per-phase severity regressions a
// whole-archive diff would average away:
//
//	metascope diff -phases [-json] [-threshold 2] [-min-delta 1e-3] a.json b.json
func diffVerb(fs *flag.FlagSet) verbFunc {
	op := fs.String("op", "diff", "operation: diff | merge | mean")
	out := fs.String("o", "", "write the result to this cube file")
	prof := fs.Bool("profile", false, "compare two time-resolved profile artifacts (metascope analyze -profile-out) instead of cube files")
	phases := fs.Bool("phases", false, "compare two phase-profile artifacts (metascope analyze -phases-out) instead of cube files")
	jsonOut := fs.Bool("json", false, "with -phases: print the comparison as JSON")
	threshold := fs.Float64("threshold", phase.DefaultThreshold, "with -phases: flag cells at or beyond this current/base severity ratio")
	minDelta := fs.Float64("min-delta", phase.DefaultMinDelta, "with -phases: ignore severity growth below this many seconds")
	return func(_ context.Context, args []string, stdout io.Writer) error {
		switch {
		case *phases:
			return runPhases(*out, *jsonOut, *threshold, *minDelta, args, stdout)
		case *prof:
			return runProfile(*out, args, stdout)
		}
		return diffReports(*op, *out, args, stdout)
	}
}
