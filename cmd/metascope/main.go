// metascope is the toolchain's one command: each stage of the
// measure → analyze → render → compare pipeline, the analysis service
// and the paper's experiments is a verb of it.
//
//	metascope run -workload metatrace -config exp1 -seed 42 -out ./run1
//	metascope analyze -in ./run1 -scheme hier
//	metascope print ./run1/analysis.cube
//	metascope <verb> -h                      # the verb's flags
//
// Every verb also takes the shared observability flags -v, -metrics-out,
// -pprof and -trace-out (internal/obs/cli.go). SIGINT or SIGTERM
// cancels the verb's context — serve drains, watch leaves its last
// frame up, analyze stops its replay, run, gen and experiments stop
// their simulation — and a second signal kills the process the default
// way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/sim"
)

// verbFunc runs one verb on its positional arguments, after its flags
// have been parsed.
type verbFunc func(ctx context.Context, args []string, stdout io.Writer) error

// verbs is the verb table, in the order the usage text lists it. Each
// setup function defines the verb's own flags on fs and returns the
// body that reads them.
var verbs = []struct {
	name, summary string
	setup         func(fs *flag.FlagSet) verbFunc
}{
	{"gen", "compile a scenario, run it, and deliver its trace archive", genVerb},
	{"run", "measure a workload on the simulated metacomputer, archives to disk", runVerb},
	{"analyze", "replay an on-disk archive and write the cube report", analyzeVerb},
	{"print", "render a cube report or a phase profile", printVerb},
	{"diff", "compare or combine cube reports, profiles or phase profiles", diffVerb},
	{"timeline", "export a synchronized timeline as Chrome trace JSON", timelineVerb},
	{"trace", "inspect, dump or convert local trace files", traceVerb},
	{"serve", "run the analysis service (jobs and live sessions over HTTP)", serveVerb},
	{"watch", "follow a live analysis session in the terminal", watchVerb},
	{"experiments", "regenerate the tables and figures of the paper's evaluation", experimentsVerb},
}

// errUsage marks a command line that names no verb (metascope -h
// included) or does not parse; main exits 2 on it, the flag package's
// convention.
var errUsage = errors.New("usage error")

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: metascope <verb> [flags] [args]\n\nverbs:\n")
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-12s %s\n", v.name, v.summary)
	}
	fmt.Fprintf(w, "\nmetascope <verb> -h lists a verb's flags.\n")
}

// dispatch runs the verb args[0] names on the rest of args: it parses
// the verb's flags together with the shared observability flags, runs
// it, and flushes the observability outputs. It returns the verb's name
// for the fatal line, and errUsage after printing usage to stderr.
func dispatch(ctx context.Context, args []string, stdout, stderr io.Writer) (string, error) {
	if len(args) > 0 {
		for _, v := range verbs {
			if v.name != args[0] {
				continue
			}
			fs := flag.NewFlagSet("metascope "+v.name, flag.ContinueOnError)
			fs.SetOutput(stderr)
			cli := obs.RegisterCLIFlags(fs.Name(), fs, nil)
			cli.FlightArchive = replay.WriteFlightArchive // -trace-out can dogfood the archive format
			body := v.setup(fs)
			if err := fs.Parse(args[1:]); errors.Is(err, flag.ErrHelp) {
				return v.name, nil
			} else if err != nil {
				return v.name, errUsage
			}
			cli.Start()
			err := body(ctx, fs.Args(), stdout)
			if ferr := cli.Flush(); err == nil {
				err = ferr
			}
			return v.name, err
		}
		fmt.Fprintf(stderr, "metascope: unknown verb %q\n", args[0])
	}
	usage(stderr)
	return "", errUsage
}

// interruptible arms eng to stop before its next event once ctx is done,
// so that its run returns ctx's cause instead of finishing the
// simulation; a context done already stops it before its first event.
// The returned stop disarms it.
func interruptible(ctx context.Context, eng *sim.Engine) (stop func() bool) {
	if ctx.Err() != nil {
		eng.Interrupt(context.Cause(ctx))
	}
	return context.AfterFunc(ctx, func() { eng.Interrupt(context.Cause(ctx)) })
}

// writeFile creates path and fills it through write, closing it on
// every path; the verbs write their reports through it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeArtifact writes a profile or phase artifact to path: CSV for a
// .csv path, JSON otherwise.
func writeArtifact(path string, a interface {
	WriteJSON(io.Writer) error
	WriteCSV(io.Writer) error
}) error {
	if strings.HasSuffix(path, ".csv") {
		return writeFile(path, a.WriteCSV)
	}
	return writeFile(path, a.WriteJSON)
}

// readFile opens path and decodes it with read, closing it on every
// path; the verbs read their cube reports and JSON artifacts through
// it. A profile or phase artifact that does not decode is named in the
// error; a cube report's errors stand as cube.Read gives them.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := read(f)
	if _, isCube := any(v).(*cube.Report); err != nil && !isCube {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return v, err
}

// metahostLabel names a metahost in a rendered row: by name, or by id
// when the artifact carries none.
func metahostLabel(name string, id int) string {
	if name == "" {
		return fmt.Sprintf("%d", id)
	}
	return name
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	verb, err := dispatch(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		obs.Fatal("metascope "+verb+" failed", "err", err)
	}
}
