package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"metascope"
	"metascope/internal/archive"
	"metascope/internal/scenario"
	"metascope/internal/serve"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// genOptions carries the parsed flags so gen is testable against golden
// files without a flag set.
type genOptions struct {
	list     bool
	library  string
	describe bool
	out      string
	format   string
	seed     int64
	serve    string
	chunk    int
	scheme   string
	title    string
}

// genVerb is gen: it compiles a declarative scenario into a synthetic
// metacomputing workload, runs it on the simulated testbed, and
// delivers the trace archive — to memory (printing the digest), to
// disk, or to a live analysis session of serve over the chunk protocol:
//
//	metascope gen -list                            # shipped scenario library
//	metascope gen -library halo2d -describe        # compiled plan, no run
//	metascope gen -library masterworker -out ./run # archives on disk
//	metascope gen scenario.json -format v1 -seed 7 # scenario file, v1 archive
//	metascope gen -library amr -serve http://host:8080 -chunk 4096
//
// A live session takes format v2 only, so -serve refuses -format v1
// (and a -chunk below one byte) before it runs anything; v1 archives
// are analysed post-mortem (analyze reads both formats) or converted
// with metascope trace -convert -format v2.
//
// Every scenario compiles to a closed-form expectation of the wait
// states the analyzer must find. The sha256 printed on every run is
// the archive's content digest (serve.Digest), the key the service's
// result cache uses for the same archive, and is deterministic in
// (scenario, seed, format).
func genVerb(fs *flag.FlagSet) verbFunc {
	o := &genOptions{}
	fs.BoolVar(&o.list, "list", false, "list the shipped scenario library and exit")
	fs.StringVar(&o.library, "library", "", "run a shipped scenario by name instead of a file")
	fs.BoolVar(&o.describe, "describe", false, "print the compiled plan and exit without running")
	fs.StringVar(&o.out, "out", "", "write archives under this directory (one subdirectory per metahost)")
	fs.StringVar(&o.format, "format", "", "trace file format: v1 | v2 (default: v2)")
	fs.Int64Var(&o.seed, "seed", 1, "experiment seed (placement noise, clock phases)")
	fs.StringVar(&o.serve, "serve", "", "submit the archive to this metascope serve base URL as a live session (format v2 only; metascope trace -convert -format v2 converts a v1 archive)")
	fs.IntVar(&o.chunk, "chunk", 4096, "chunk size in bytes for -serve uploads")
	fs.StringVar(&o.scheme, "scheme", "hier", "sync scheme for -serve sessions: flat1 | flat2 | hier")
	fs.StringVar(&o.title, "title", "", "experiment title (default: scenario name)")
	return func(ctx context.Context, args []string, stdout io.Writer) error {
		return gen(ctx, *o, args, stdout)
	}
}

func gen(ctx context.Context, o genOptions, args []string, out io.Writer) error {
	if o.list {
		return listLibrary(out)
	}
	p, name, err := loadProgram(o, args)
	if err != nil {
		return err
	}
	if o.describe {
		fmt.Fprint(out, p.Describe())
		return nil
	}
	format, err := trace.ParseFormat(o.format)
	if err != nil {
		return err
	}
	if format == trace.FormatDefault {
		format = trace.FormatV2
	}
	if o.serve != "" && format != trace.FormatV2 {
		return fmt.Errorf("gen: -serve cannot upload a %v archive: %w", format, trace.ErrV1Stream)
	}
	// A chunk of zero bytes never advances an upload (and each empty PUT
	// keeps the session from idling out); a negative one slices out of
	// bounds.
	if o.serve != "" && o.chunk < 1 {
		return fmt.Errorf("gen: -chunk must be at least 1 byte, got %d", o.chunk)
	}
	p.Spec.Format = format
	title := o.title
	if title == "" {
		title = p.Spec.Name
	}

	e, err := p.NewExperiment(title, o.seed)
	if err != nil {
		return err
	}
	defer interruptible(ctx, e.Engine())()
	if o.out != "" {
		mounts, err := mountDirs(o.out, e.Topo)
		if err != nil {
			return err
		}
		e.UseMounts(mounts)
	}
	if err := e.Run(p.Body); err != nil {
		return err
	}
	if err := p.PostProcess(e.Mounts(), e.ArchiveDir); err != nil {
		return err
	}

	digest, err := serve.Digest(e.Mounts(), e.Place.MetahostsUsed(), e.ArchiveDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scenario %q: kernel %s, %d ranks, %d phases, %.2f s virtual time\n",
		name, p.Spec.Kernel, p.N(), p.Phases(), e.Engine().Now())
	fmt.Fprintf(out, "archive %s (%s): %d files, sha256 %s\n", e.ArchiveDir, format, p.N(), digest)
	if o.out != "" {
		fmt.Fprintf(out, "archives written under %s (one subdirectory per metahost)\n", o.out)
		fmt.Fprintf(out, "analyze with: metascope analyze -in %s -archive %s\n", o.out, e.ArchiveDir)
	}
	if o.serve != "" {
		return submit(ctx, o, p, e, out)
	}
	return nil
}

func listLibrary(out io.Writer) error {
	for _, name := range scenario.LibraryNames() {
		p, err := scenario.LoadLibrary(name)
		if err != nil {
			return err
		}
		kind := "exact oracle"
		if p.Expect.Err {
			kind = "analysis must fail"
		}
		fmt.Fprintf(out, "%-14s %-13s %2d ranks, %d iterations, %s\n",
			name, p.Spec.Kernel, p.N(), p.Spec.Iterations, kind)
	}
	return nil
}

func loadProgram(o genOptions, args []string) (*scenario.Program, string, error) {
	switch {
	case o.library != "" && len(args) > 0:
		return nil, "", fmt.Errorf("pass either -library NAME or a scenario file, not both")
	case o.library != "":
		p, err := scenario.LoadLibrary(o.library)
		if err != nil {
			return nil, "", err
		}
		return p, o.library, nil
	case len(args) == 1:
		src, err := os.ReadFile(args[0])
		if err != nil {
			return nil, "", err
		}
		p, err := scenario.Load(src)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", args[0], err)
		}
		return p, args[0], nil
	default:
		return nil, "", fmt.Errorf("usage: metascope gen [-library NAME | scenario.json] [flags] (see -list)")
	}
}

// sessionStatus is the subset of the service's session document the
// uploader needs.
type sessionStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// submit streams the experiment's trace files to a live analysis
// session over the chunk protocol, round-robin across ranks.
func submit(ctx context.Context, o genOptions, p *scenario.Program, e *metascope.Experiment, out io.Writer) error {
	if _, err := vclock.ParseScheme(o.scheme); err != nil {
		return err
	}
	blobs := make([][]byte, p.N())
	mhs := make([]int, p.N())
	for r := 0; r < p.N(); r++ {
		loc := e.Place.Loc(r)
		data, err := archive.ReadFile(e.Mounts().For(loc.Metahost), archive.TraceFile(e.ArchiveDir, r))
		if err != nil {
			return err
		}
		blobs[r], mhs[r] = data, loc.Metahost
	}

	base := strings.TrimRight(o.serve, "/")
	q := url.Values{}
	q.Set("ranks", fmt.Sprint(p.N()))
	q.Set("scheme", o.scheme)
	q.Set("title", e.Title)
	st, err := postStatus(ctx, base+"/v1/sessions?"+q.Encode())
	if err != nil {
		return fmt.Errorf("creating session: %w", err)
	}
	fmt.Fprintf(out, "serve: session %s open (%d ranks, scheme %s)\n", st.ID, p.N(), o.scheme)

	offs := make([]int, p.N())
	seqs := make([]int64, p.N())
	sent := 0
	for {
		progressed := false
		for r, b := range blobs {
			if offs[r] >= len(b) {
				continue
			}
			end := min(offs[r]+o.chunk, len(b))
			u := fmt.Sprintf("%s/v1/sessions/%s/ranks/%d/%d?seq=%d", base, st.ID, mhs[r], r, seqs[r])
			if end == len(b) {
				u += "&last=1"
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPut, u, bytes.NewReader(b[offs[r]:end]))
			if err != nil {
				return err
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("chunk rank %d seq %d: HTTP %d %s", r, seqs[r], resp.StatusCode, body)
			}
			sent += end - offs[r]
			offs[r] = end
			seqs[r]++
			progressed = true
		}
		if !progressed {
			break
		}
	}

	final, err := postStatus(ctx, base+"/v1/sessions/"+st.ID+"/finalize?wait=60s")
	if err != nil {
		return fmt.Errorf("finalizing session: %w", err)
	}
	if final.State != "done" {
		return fmt.Errorf("session %s ended in state %q: %s", st.ID, final.State, final.Error)
	}
	fmt.Fprintf(out, "serve: session %s done, %d bytes in %d ranks\n", st.ID, sent, p.N())
	fmt.Fprintf(out, "serve: result at %s/v1/experiments/%s/result\n", base, st.ID)
	return nil
}

// postStatus POSTs and decodes the session document, accepting any
// 2xx (session creation answers 201, a finalize that has to wait 202).
func postStatus(ctx context.Context, url string) (sessionStatus, error) {
	var st sessionStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}
