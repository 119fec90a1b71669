package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/phase"
	"metascope/internal/profile"
)

// printOptions carries the parsed flags so printReport is testable
// against golden files without a flag set.
type printOptions struct {
	metric    string
	call      string
	list      bool
	htmlOut   string
	profileIn string
	phasesIn  string
}

// renderPhases prints a phase profile as one section per detected
// phase: its time bounds, signature, and the per-(family, metahost)
// severities accumulated inside it.
func renderPhases(p *phase.Profile, out io.Writer) {
	fmt.Fprintf(out, "phase profile: %s\n", p.Title)
	fmt.Fprintf(out, "%d ranks, %d phases, period %d", p.Ranks, len(p.Phases), p.Period)
	if p.Pre > 0 || p.Post > 0 {
		fmt.Fprintf(out, " (prologue %d, epilogue %d)", p.Pre, p.Post)
	}
	fmt.Fprintln(out)
	for _, ph := range p.Phases {
		fmt.Fprintf(out, "\nphase %d  [%.4g, %.4g)s  %d ops  sig %s\n", ph.Index, ph.Start, ph.End, ph.Ops, ph.Sig)
		if len(ph.Rows) == 0 {
			fmt.Fprintf(out, "  (no wait states)\n")
			continue
		}
		for _, r := range ph.Rows {
			// Message-volume families carry bytes, not seconds.
			unit := "s"
			if strings.HasPrefix(r.Family, "comm.bytes.") {
				unit = "B"
			}
			fmt.Fprintf(out, "  %-45s %-12s %12.4g %s\n", r.Family, metahostLabel(r.MetahostName, r.Metahost), r.Severity, unit)
		}
	}
}

func printReport(o printOptions, args []string, out io.Writer) error {
	if o.phasesIn != "" {
		if len(args) != 0 {
			return fmt.Errorf("usage: metascope print -phases phases.json")
		}
		p, err := readFile(o.phasesIn, phase.Read)
		if err != nil {
			return err
		}
		span := obs.Default.Phases.Start("render")
		defer span.End()
		renderPhases(p, out)
		return nil
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: metascope print [-metric KEY] [-call PATH] report.cube")
	}
	r, err := readFile(args[0], cube.Read)
	if err != nil {
		return err
	}
	if o.profileIn != "" {
		if r.Profile, err = readFile(o.profileIn, profile.Read); err != nil {
			return err
		}
	}
	if o.list {
		for _, m := range r.Metrics {
			fmt.Fprintf(out, "%-55s %s\n", m.Key, m.Name)
		}
		return nil
	}
	span := obs.Default.Phases.Start("render")
	defer span.End()
	if o.htmlOut != "" {
		if err := writeFile(o.htmlOut, r.RenderHTML); err != nil {
			return err
		}
		fmt.Fprintf(out, "HTML report written to %s\n", o.htmlOut)
		return nil
	}
	fmt.Fprintf(out, "report: %s\n\n", r.Title)
	if o.metric == "" {
		fmt.Fprint(out, r.RenderMetricTree())
		return nil
	}
	if o.call == "" {
		fmt.Fprint(out, r.RenderFigure(o.metric))
		return nil
	}
	c := r.CallByPath(strings.Split(o.call, "/"))
	if c < 0 {
		return fmt.Errorf("call path %q not found", o.call)
	}
	fmt.Fprint(out, r.RenderCallTree(o.metric))
	fmt.Fprintln(out)
	fmt.Fprint(out, r.RenderSystemTree(o.metric, c))
	return nil
}

// printVerb is print: it renders an analysis report (cube file) as the
// three panels of the result browser: metric hierarchy, call tree,
// system tree.
//
//	metascope print report.cube                         # metric tree
//	metascope print -metric mpi.synchronization.wait_barrier.grid report.cube
//	metascope print -metric ... -call main/cgiteration report.cube
//	metascope print -html report.html -profile p.json report.cube
//
// The cube file does not embed the time-resolved profile; -profile
// re-attaches the artifact written by analyze -profile-out so the
// HTML report includes the severity heatmaps.
//
// With -phases it renders a phase profile (analyze -phases-out) as
// per-phase severity sections instead of reading a cube file:
//
//	metascope print -phases run1-phases.json
func printVerb(fs *flag.FlagSet) verbFunc {
	o := &printOptions{}
	fs.StringVar(&o.metric, "metric", "", "metric key to expand (see -list)")
	fs.StringVar(&o.call, "call", "", "call path for the system panel, '/'-separated")
	fs.BoolVar(&o.list, "list", false, "list available metric keys and exit")
	fs.StringVar(&o.htmlOut, "html", "", "write a self-contained HTML report to this file")
	fs.StringVar(&o.profileIn, "profile", "", "attach a time-resolved profile artifact (metascope analyze -profile-out) for the HTML heatmaps")
	fs.StringVar(&o.phasesIn, "phases", "", "render a phase profile (metascope analyze -phases-out) instead of a cube file")
	return func(_ context.Context, args []string, stdout io.Writer) error {
		return printReport(*o, args, stdout)
	}
}
