package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"

	"metascope/internal/archive"
)

// manifest is BENCHMARK.json as the benchmark driver reads it.
type manifest struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesHarness pins BENCHMARK.json to the harness's own
// tables: same workloads with the same reasons, same metrics with the
// same units, directions and bounds, inside the driver's limits.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	if strings.Join(m.Command, " ") != "go run ./bench" || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("command %q, paths %q: want go run ./bench in bench", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(m.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics declared, harness has %d, limit %d", kind, len(got), len(want), limit)
		}
		for i := range got {
			unique(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, 16)
	same("per_layer", m.PerLayer, perLayer, 128)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs all four workloads, untraced and traced, on shrunken
// inputs with two operations each, and requires every declared metric
// exactly once with its declared unit and no failed operation.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				res, _, err := run(w, options{seed: 1, ops: 2, small: true, trace: traced, spansDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: emitted=%v unit %q, want %q", d.Name, ok, v.Unit, d.Unit)
					}
					if v.Value != v.Value || (!traced && v.Value <= 0) {
						t.Errorf("metric %s = %v", d.Name, v.Value)
					}
				}
			})
		}
	}
}

// TestTruncatedTraceCountsAsFailure damages the archive under a
// workload after set-up: every later operation must be counted as
// failed, not timed as a success.
func TestTruncatedTraceCountsAsFailure(t *testing.T) {
	in, err := buildInput("halo2d", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	op, err := setupEager(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer op.close()
	if got := timed(op, 2, nil); got.failed != 0 {
		t.Fatalf("intact archive: %d of 2 operations failed: %v", got.failed, got.firstErrors)
	}
	path := archive.TraceFile(in.dir, 0)
	fs := in.mounts.For(in.rankMH[0])
	blob, err := archive.ReadFile(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(blob[:len(blob)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := timed(op, 2, nil); got.failed != 2 {
		t.Errorf("truncated rank 0: %d of 2 operations counted as failed, want 2", got.failed)
	}
}

// TestNoBenchmarkFunctions keeps check.sh's `-bench . -benchtime=1x`
// sweep from ever picking up a minutes-long run here: this package is
// measured with `go run`, never with `go test -bench`.
func TestNoBenchmarkFunctions(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
					t.Errorf("%s declares %s", name, fn.Name.Name)
				}
			}
		}
	}
}
