package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"metascope/internal/conformance"
	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/serve"
	"metascope/internal/vclock"
)

// chunkBytes is the upload chunk size of the live workloads.
const chunkBytes = 64 << 10

// warmups is how many verified operations every set-up ends with, so
// that the first timed operation meets warm pools, caches and
// connections.
const warmups = 3

// workload is one closed loop: one client, one connection, the next
// operation starts when the previous one has been verified.
type workload struct {
	name  string
	input string
	// opsPerSecond sizes the fixed operation count: ops = opsPerSecond ×
	// -seconds, the same on every commit. Calibrated once on the 2-vCPU
	// reference box so the timed phase lasts about -seconds at
	// GOMAXPROCS=1; never recalibrate it together with a program change.
	opsPerSecond float64
	why          string
	setup        func(in *input, rec *obs.Recorder) (operation, error)
}

// operation is a workload after set-up. run is the timed part and
// leaves its outputs behind; verify checks them once the clock has
// stopped; close releases servers and connections.
type operation interface {
	run(tr *tracer) error
	verify() error
	// reference is an analysis of the archive, which the micro rungs
	// render and compare counts against.
	reference() *replay.Result
	close() error
}

var workloads = []workload{
	{
		name: "halo2d-eager", input: "halo2d", opsPerSecond: 11.5,
		why:   "192 replay workers, one message per ~4 events: matching, mailboxes, post-pass and phase fold dominate; decode is small",
		setup: setupEager,
	},
	{
		name: "metatrace-lazy", input: "metatrace", opsPerSecond: 2.6,
		why:   "3 M mostly enter/exit events on 32 ranks: v2 block decode at the sweep cursor dominates; matching is small; bounded memory shows in peak_rss_mb",
		setup: setupLazy,
	},
	{
		name: "metatrace-live", input: "metatrace", opsPerSecond: 1.45,
		why:   "the metatrace-lazy archive through ChunkDecoder, live rank-log and HTTP in 64 KiB chunks: the difference between the two is the streaming-ingest cost",
		setup: setupLive,
	},
	{
		name: "halo2d-served", input: "halo2d", opsPerSecond: 8.5,
		why:   "the halo2d-eager archive through zip decode, digest, queue and HTTP with the result cache off: the difference is the service overhead; never-evicted jobs grow peak_rss_mb",
		setup: setupServed,
	},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

// artifacts holds what one analysis rendered. The buffers are reused
// from operation to operation, as a CLI reuses its output files.
type artifacts struct {
	cube, profile, phases bytes.Buffer
	text                  int // bytes of the human-readable renders
}

// render writes everything mtanalyze writes: the cube file, the
// findings, communication matrix and metric tree it prints, and the
// -profile-out and -phases-out artifacts.
func (a *artifacts) render(tr *tracer, res *replay.Result) error {
	a.cube.Reset()
	a.profile.Reset()
	a.phases.Reset()
	s := tr.begin("cube.write")
	err := res.Report.Write(&a.cube)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("cube.render")
	a.text = renderText(res)
	tr.end(s)
	s = tr.begin("profile.write")
	err = res.Profile.WriteJSON(&a.profile)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("phase.write")
	err = res.Phases.WriteJSON(&a.phases)
	tr.end(s)
	return err
}

// renderText renders what mtanalyze prints and returns its size.
func renderText(res *replay.Result) int {
	return len(cube.RenderFindings(res.Report.Findings(5, 0.5))) +
		len(res.FormatCommMatrix()) + len(res.Report.RenderMetricTree())
}

// differ names the first artifact of a that is not byte-identical to
// want's.
func (a *artifacts) differ(want *artifacts) error {
	switch {
	case !bytes.Equal(a.cube.Bytes(), want.cube.Bytes()):
		return fmt.Errorf("cube differs from the reference (%d vs %d bytes)", a.cube.Len(), want.cube.Len())
	case !bytes.Equal(a.profile.Bytes(), want.profile.Bytes()):
		return fmt.Errorf("profile differs from the reference (%d vs %d bytes)", a.profile.Len(), want.profile.Len())
	case !bytes.Equal(a.phases.Bytes(), want.phases.Bytes()):
		return fmt.Errorf("phase profile differs from the reference (%d vs %d bytes)", a.phases.Len(), want.phases.Len())
	}
	return nil
}

// analyzeConfig is the configuration of every in-process analysis;
// the title is the one the service gives an uploaded archive, so the
// in-process reference and the served result can be compared by byte.
func analyzeConfig(in *input, rec *obs.Recorder) replay.Config {
	return replay.Config{
		Scheme: vclock.Hierarchical,
		Title:  fmt.Sprintf("%s (%v)", in.dir, vclock.Hierarchical),
		Obs:    rec,
	}
}

// inProcess is the post-mortem path of mtanalyze, eager or lazy.
type inProcess struct {
	in   *input
	cfg  replay.Config
	lazy bool

	res *replay.Result
	out artifacts
	ref artifacts // the first warm-up operation's
}

func setupEager(in *input, rec *obs.Recorder) (operation, error) {
	return newInProcess(in, rec, false)
}

func setupLazy(in *input, rec *obs.Recorder) (operation, error) {
	return newInProcess(in, rec, true)
}

func newInProcess(in *input, rec *obs.Recorder, lazy bool) (operation, error) {
	w := &inProcess{in: in, cfg: analyzeConfig(in, rec), lazy: lazy}
	// The first warm-up operation's artifacts are the reference the
	// later ones, warm-up or timed, must equal.
	if err := w.run(nil); err != nil {
		return nil, err
	}
	if err := w.ref.render(nil, w.res); err != nil {
		return nil, err
	}
	if err := w.verify(); err != nil {
		return nil, err
	}
	return warm(w, warmups-1)
}

func (w *inProcess) run(tr *tracer) error {
	in := w.in
	var err error
	if w.lazy {
		s := tr.begin("replay.load_lazy")
		ar, lerr := replay.LoadArchiveLazy(in.mounts, in.metahosts, in.dir)
		tr.end(s)
		if lerr != nil {
			return lerr
		}
		s = tr.begin("replay.analyze_lazy")
		w.res, err = replay.AnalyzeLazy(ar, w.cfg)
		tr.end(s)
	} else {
		// The two calls replay.AnalyzeArchive makes, apart so that each
		// has its span; traced and untraced run the same sequence.
		s := tr.begin("replay.load")
		traces, lerr := replay.LoadArchiveObs(in.mounts, in.metahosts, in.dir, w.cfg.Obs)
		tr.end(s)
		if lerr != nil {
			return lerr
		}
		s = tr.begin("replay.analyze")
		w.res, err = replay.Analyze(traces, w.cfg)
		tr.end(s)
	}
	if err != nil {
		return err
	}
	return w.out.render(tr, w.res)
}

func (w *inProcess) verify() error {
	if p := w.in.prog; p != nil {
		if mm := conformance.CheckKernel(w.res.Report, p, w.in.scale, conformance.Tolerance{Abs: 1e-9}); len(mm) != 0 {
			return fmt.Errorf("%d closed-form mismatches, first: %v", len(mm), mm[0])
		}
		if w.res.Violations != 0 {
			return fmt.Errorf("%d clock-condition violations under the hierarchical scheme", w.res.Violations)
		}
	}
	return w.out.differ(&w.ref)
}

func (w *inProcess) reference() *replay.Result { return w.res }
func (w *inProcess) close() error              { return nil }

// service is an in-process mtserved behind a real HTTP listener, and
// the in-process reference analysis its results must equal.
type service struct {
	in     *input
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client

	refRes *replay.Result
	ref    artifacts
	cube   bytes.Buffer // fetched result
	prof   bytes.Buffer // fetched profile
}

func newService(in *input, rec *obs.Recorder) (*service, error) {
	sv := &service{in: in}
	var err error
	if sv.refRes, err = replay.AnalyzeArchive(in.mounts, in.metahosts, in.dir, analyzeConfig(in, rec)); err != nil {
		return nil, err
	}
	if err := sv.ref.render(nil, sv.refRes); err != nil {
		return nil, err
	}
	if in.prog != nil {
		if mm := conformance.CheckKernel(sv.refRes.Report, in.prog, in.scale, conformance.Tolerance{Abs: 1e-9}); len(mm) != 0 {
			return nil, fmt.Errorf("reference analysis: %d closed-form mismatches, first: %v", len(mm), mm[0])
		}
	}
	// One worker and no result cache: every job pays the full pipeline
	// and the closed loop never queues behind itself.
	sv.srv = serve.New(serve.Options{Workers: 1, CacheEntries: -1, Obs: rec})
	sv.ts = httptest.NewServer(sv.srv.Handler())
	sv.client = sv.ts.Client()
	return sv, nil
}

// do sends one request and reads the whole response into dst (or
// discards it), failing on any status but want.
func (sv *service) do(method, path string, body []byte, want int, dst *bytes.Buffer) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, sv.ts.URL+path, rd)
	if err != nil {
		return err
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: HTTP %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	if dst == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	dst.Reset()
	_, err = dst.ReadFrom(resp.Body)
	return err
}

// doJSON is do decoding a JSON status document.
func (sv *service) doJSON(method, path string, body []byte, want int, v any) error {
	var buf bytes.Buffer
	if err := sv.do(method, path, body, want, &buf); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}

func (sv *service) verify() error {
	switch {
	case !bytes.Equal(sv.cube.Bytes(), sv.ref.cube.Bytes()):
		return fmt.Errorf("served cube differs from the in-process reference (%d vs %d bytes)", sv.cube.Len(), sv.ref.cube.Len())
	case !bytes.Equal(sv.prof.Bytes(), sv.ref.profile.Bytes()):
		return fmt.Errorf("served profile differs from the in-process reference (%d vs %d bytes)", sv.prof.Len(), sv.ref.profile.Len())
	}
	return nil
}

func (sv *service) reference() *replay.Result { return sv.refRes }

func (sv *service) close() error {
	sv.client.CloseIdleConnections()
	sv.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return sv.srv.Drain(ctx)
}

// served uploads the archive as one zip bundle per job.
type served struct {
	*service
	bundle []byte
}

func setupServed(in *input, rec *obs.Recorder) (operation, error) {
	sv, err := newService(in, rec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := serve.EncodeZip(&buf, in.mounts, in.metahosts, in.dir); err != nil {
		sv.close()
		return nil, err
	}
	return warm(&served{service: sv, bundle: buf.Bytes()}, warmups)
}

func (w *served) run(tr *tracer) error {
	var st serve.JobStatus
	s := tr.begin("serve.submit")
	err := w.doJSON(http.MethodPost, "/v1/jobs", w.bundle, http.StatusAccepted, &st)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("serve.wait")
	err = w.doJSON(http.MethodGet, "/v1/jobs/"+st.ID+"?wait=60s", nil, http.StatusOK, &st)
	tr.end(s)
	if err != nil {
		return err
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	s = tr.begin("serve.result_get")
	err = w.do(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &w.cube)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("serve.profile_get")
	err = w.do(http.MethodGet, "/v1/jobs/"+st.ID+"/profile", nil, http.StatusOK, &w.prof)
	tr.end(s)
	return err
}

// live streams the archive into a live analysis session with mtgen's
// chunk protocol: round-robin over the ranks, one chunk each.
type live struct {
	*service
	blobs  [][]byte
	create string // session-creation path with its query
}

func setupLive(in *input, rec *obs.Recorder) (operation, error) {
	sv, err := newService(in, rec)
	if err != nil {
		return nil, err
	}
	blobs, err := in.readBlobs()
	if err != nil {
		sv.close()
		return nil, err
	}
	q := url.Values{}
	q.Set("ranks", fmt.Sprint(len(blobs)))
	q.Set("scheme", "hier")
	q.Set("title", analyzeConfig(in, rec).Title)
	return warm(&live{service: sv, blobs: blobs, create: "/v1/sessions?" + q.Encode()}, warmups)
}

func (w *live) run(tr *tracer) error {
	var st serve.SessionStatus
	s := tr.begin("serve.session_create")
	err := w.doJSON(http.MethodPost, w.create, nil, http.StatusCreated, &st)
	tr.end(s)
	if err != nil {
		return err
	}
	base := "/v1/sessions/" + st.ID
	for off, seq := 0, 0; ; off, seq = off+chunkBytes, seq+1 {
		sent := false
		for r, b := range w.blobs {
			if off >= len(b) {
				continue
			}
			end := off + chunkBytes
			path := fmt.Sprintf("%s/ranks/%d/%d?seq=%d", base, w.in.rankMH[r], r, seq)
			if end >= len(b) {
				end = len(b)
				path += "&last=1"
			}
			s = tr.begin("serve.chunk_put")
			err = w.do(http.MethodPut, path, b[off:end], http.StatusOK, nil)
			tr.end(s)
			if err != nil {
				return err
			}
			sent = true
		}
		if !sent {
			break
		}
	}
	s = tr.begin("serve.finalize")
	err = w.doJSON(http.MethodPost, base+"/finalize?wait=60s", nil, http.StatusAccepted, &st)
	tr.end(s)
	if err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("session %s ended %s: %s", st.ID, st.State, st.Error)
	}
	s = tr.begin("serve.result_get")
	err = w.do(http.MethodGet, "/v1/experiments/"+st.ID+"/result", nil, http.StatusOK, &w.cube)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("serve.profile_get")
	err = w.do(http.MethodGet, "/v1/experiments/"+st.ID+"/profile", nil, http.StatusOK, &w.prof)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("serve.session_delete")
	err = w.do(http.MethodDelete, base, nil, http.StatusOK, nil)
	tr.end(s)
	return err
}

// warm runs and verifies n of the set-up's warm-up operations.
func warm(op operation, n int) (operation, error) {
	for i := 0; i < n; i++ {
		err := op.run(nil)
		if err == nil {
			err = op.verify()
		}
		if err != nil {
			op.close()
			return nil, err
		}
	}
	return op, nil
}
