package metascope_test

// End-to-end observability: a quickstart-shaped experiment with an
// isolated recorder must leave a complete self-instrumentation trail —
// per-phase durations for every pipeline stage, replay communication
// histograms (total and external subset), clock-repair counters, and a
// Prometheus exposition that parses line by line.

import (
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"metascope"
	"metascope/internal/measure"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/topology"
	"metascope/internal/vclock"
)

func runInstrumentedPipeline(t *testing.T, rec *obs.Recorder) *metascope.Experiment {
	t.Helper()
	topo := metascope.VIOLA()
	place := topology.NewPlacement(topo)
	place.MustPlace(2, 0, 2, 2)
	place.MustPlace(0, 0, 2, 2)

	e := metascope.NewExperiment("obs-pipeline", topo, place, 7)
	e.Obs = rec
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	err := e.Run(func(m *measure.M) {
		c := m.World()
		peer := (c.Rank() + c.Size()/2) % c.Size()
		m.Enter("main")
		for s := 0; s < 5; s++ {
			m.Compute("", 0.01)
			c.Sendrecv(peer, 1, 4<<10, peer, 1)
			c.Barrier()
		}
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Analyze(metascope.Hierarchical)
	if err != nil {
		t.Fatal(err)
	}
	span := rec.Phases.Start("render")
	_ = res.Report.RenderMetricTree()
	span.End()
	return e
}

// TestPatternSearchChildrenTileIt: the pattern search reports where its
// time went — ledger fold, phase detection, post-pass, report build — and
// those four account for it: on the halo2d library scenario their sum is
// within 2 % of the pattern-search span, which in a post-mortem analysis
// starts when the sweep has ended.
func TestPatternSearchChildrenTileIt(t *testing.T) {
	prog, err := scenario.LoadLibrary("halo2d")
	if err != nil {
		t.Fatal(err)
	}
	e, err := prog.Run("halo2d", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A span's clock can be read around a descheduling; a tiling cannot
	// be gapped one run in three.
	var whole, parts float64
	for attempt := 0; attempt < 3; attempt++ {
		rec := obs.NewRecorder()
		if _, err := e.AnalyzeConfig(replay.Config{Scheme: vclock.Hierarchical, Obs: rec}); err != nil {
			t.Fatal(err)
		}
		whole, parts = 0, 0
		for _, p := range rec.Phases.Snapshot() {
			switch p.Path {
			case "pattern-search":
				whole = p.Seconds
			case "pattern-search/ledger-fold", "pattern-search/phase-detect",
				"pattern-search/post-pass", "pattern-search/report-build":
				if p.Count < 1 {
					t.Errorf("%s recorded %d times", p.Path, p.Count)
				}
				parts += p.Seconds
			}
		}
		if whole > 0 && parts <= whole && parts >= 0.98*whole {
			return
		}
	}
	t.Errorf("pattern-search took %.6f s, its four children %.6f s (%.1f %%): want within 2 %%", whole, parts, 100*parts/whole)
}

func TestObservabilityPipelineSnapshot(t *testing.T) {
	rec := obs.NewRecorder()
	var logged strings.Builder
	rec.Log = obs.NewLogger(&logged)
	rec.Log.SetLevel(obs.LevelDebug)
	runInstrumentedPipeline(t, rec)

	// The ledger fold says once, at debug level, what the ledger held:
	// 8 ranks x 5 rounds of one send and one receive, the pages they sit
	// in, and their bytes — at least 32 per sample and receive, 24 per op.
	ledger := regexp.MustCompile(`(?m)^level=debug msg="ledger folded" samples=(\d+) recvs=40 ops=(\d+) pages=(\d+) ledger_bytes=(\d+)$`).
		FindAllStringSubmatch(logged.String(), -1)
	if len(ledger) != 1 {
		t.Fatalf("want one \"ledger folded\" debug line, got %d in:\n%s", len(ledger), logged.String())
	}
	var n [4]int // samples, ops, pages, bytes
	for i := range n {
		n[i], _ = strconv.Atoi(ledger[0][i+1])
	}
	if n[0] < 40 || n[1] < 80 || n[2] < 3*8 || n[3] < 32*(n[0]+40)+24*n[1] {
		t.Errorf("ledger line reports %d samples, %d ops, %d pages, %d bytes", n[0], n[1], n[2], n[3])
	}

	// The replay says once how it was scheduled: a post-mortem replay's
	// 8 ranks park on mailboxes and gathers, never on a log, and take one
	// step each plus one per park; each wake is another rank's step, at
	// most one per park, and only some of them cross shards. Its matching
	// shape says how many of the other 7 ranks sent to one receiver at once
	// and how many of the 40 records one mailbox held.
	sched := regexp.MustCompile(`(?m)^level=debug msg="replay scheduled" runners=(\d+) steps=(\d+) park_mailbox=(\d+) park_gather=(\d+) park_log=0 wakes=(\d+) wakes_cross=(\d+) steals=(\d+) max_ready=(\d+) senders_max=(\d+) pending_max=(\d+)$`).
		FindAllStringSubmatch(logged.String(), -1)
	if len(sched) != 1 {
		t.Fatalf("want one \"replay scheduled\" debug line, got %d in:\n%s", len(sched), logged.String())
	}
	var s [10]int // runners, steps, mailbox parks, gather parks, wakes, cross-shard wakes, steals, max ready, senders max, pending max
	for i := range s {
		s[i], _ = strconv.Atoi(sched[0][i+1])
	}
	if s[0] < 1 || s[0] > 8 || s[1] != 8+s[2]+s[3] || s[3] == 0 || s[4] > s[2]+s[3] || s[5] > s[4] || s[6] > s[1] || s[7] > 8 ||
		s[8] < 1 || s[8] > 7 || s[9] < s[8] || s[9] > 40 {
		t.Errorf("schedule line reports %d runners, %d steps, %d mailbox and %d gather parks, %d wakes (%d across shards), %d steals, %d ready at most, %d senders and %d records in one mailbox at most",
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9])
	}

	var buf strings.Builder
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}

	phases := map[string]obs.PhaseSnapshot{}
	for _, p := range snap.Phases {
		phases[p.Path] = p
	}
	for _, path := range []string{
		"build", "measure", "measure/archive-protocol", "measure/sync",
		"measure/trace-write", "archive", "sync", "replay", "pattern-search",
		"pattern-search/ledger-fold", "pattern-search/phase-detect",
		"pattern-search/post-pass", "pattern-search/report-build", "render",
	} {
		p, ok := phases[path]
		if !ok {
			t.Errorf("phase %q missing from snapshot (have %v)", path, keysOf(phases))
			continue
		}
		if p.Count < 1 || p.Seconds < 0 {
			t.Errorf("phase %q has count=%d seconds=%g", path, p.Count, p.Seconds)
		}
	}

	metrics := map[string]obs.FamilySnapshot{}
	for _, m := range snap.Metrics {
		metrics[m.Name] = m
	}
	// Replay byte histograms: one observation per rank, external ≤ total.
	total, ok := metrics["metascope_replay_rank_bytes"]
	if !ok || len(total.Series) != 1 {
		t.Fatalf("metascope_replay_rank_bytes missing or malformed: %+v", total)
	}
	ext, ok := metrics["metascope_replay_rank_external_bytes"]
	if !ok || len(ext.Series) != 1 {
		t.Fatalf("metascope_replay_rank_external_bytes missing or malformed: %+v", ext)
	}
	if got := total.Series[0].Count; got != 8 {
		t.Errorf("rank bytes observations = %d, want 8 (one per rank)", got)
	}
	if ext.Series[0].Count != 8 {
		t.Errorf("external bytes observations = %d, want 8", ext.Series[0].Count)
	}
	if ext.Series[0].Value > total.Series[0].Value {
		t.Errorf("external bytes %g exceed total %g", ext.Series[0].Value, total.Series[0].Value)
	}
	if total.Series[0].Value <= 0 {
		t.Errorf("replay moved no bytes: %g", total.Series[0].Value)
	}

	// Clock-repair counters are present even when zero (repair is off).
	repairs, ok := metrics["metascope_replay_repairs_total"]
	if !ok {
		t.Fatal("metascope_replay_repairs_total missing")
	}
	if len(repairs.Series) != 1 || repairs.Series[0].Value != 0 {
		t.Errorf("repairs = %+v, want one zero series", repairs.Series)
	}
	if _, ok := metrics["metascope_replay_violations_total"]; !ok {
		t.Error("metascope_replay_violations_total missing")
	}
	// Sync instrumentation from the measurement side.
	if _, ok := metrics["metascope_sync_offset_measurements_total"]; !ok {
		t.Error("metascope_sync_offset_measurements_total missing")
	}
	if _, ok := metrics["metascope_sync_residual_drift"]; !ok {
		t.Error("metascope_sync_residual_drift missing")
	}
}

func keysOf(m map[string]obs.PhaseSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

var (
	promCommentRe = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promSampleRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[+-]?[0-9].*)$`)
)

func TestObservabilityPipelinePrometheus(t *testing.T) {
	rec := obs.NewRecorder()
	runInstrumentedPipeline(t, rec)

	var buf strings.Builder
	if err := rec.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "# TYPE metascope_replay_rank_bytes histogram") {
		t.Error("replay byte histogram missing from exposition")
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 20 {
		t.Fatalf("suspiciously short exposition (%d lines)", len(lines))
	}
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			if !promCommentRe.MatchString(line) {
				t.Errorf("line %d: malformed comment: %q", i+1, line)
			}
		} else if !promSampleRe.MatchString(line) {
			t.Errorf("line %d: malformed sample: %q", i+1, line)
		}
	}
}

// Two identical runs on isolated recorders must produce identical
// metric values for everything derived from the simulation. Only the
// families measuring real wall clock (protocol step timings, replay
// throughput) may differ between runs.
func TestObservabilityDeterministicCounters(t *testing.T) {
	wallClock := map[string]bool{
		"metascope_archive_step_seconds":     true,
		"metascope_replay_events_per_second": true,
	}
	simOnly := func(snap []obs.FamilySnapshot) []obs.FamilySnapshot {
		out := snap[:0]
		for _, f := range snap {
			if !wallClock[f.Name] {
				out = append(out, f)
			}
		}
		return out
	}
	a, b := obs.NewRecorder(), obs.NewRecorder()
	runInstrumentedPipeline(t, a)
	runInstrumentedPipeline(t, b)
	aj, _ := json.Marshal(simOnly(a.Reg.Snapshot()))
	bj, _ := json.Marshal(simOnly(b.Reg.Snapshot()))
	if string(aj) != string(bj) {
		t.Errorf("metric snapshots differ between identical runs:\nA: %s\nB: %s", aj, bj)
	}
}
