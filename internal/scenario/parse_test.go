package scenario

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"metascope/internal/trace"
)

// TestParseDefaults pins every default: each document leaves keys out
// and the whole decoded Spec is compared, so a default that drifts —
// or a key that stops reaching its field — fails here.
func TestParseDefaults(t *testing.T) {
	t.Parallel()
	minimal := func() Spec {
		return Spec{
			Name: "halo1d", Kernel: KernelHalo1D, Seed: 1, Ranks: 4, Iterations: 2, Bytes: 2048,
			Topology: TopoSpec{Preset: "conformance", Count: 2},
			Schedule: ScheduleSpec{Align: 2.0, Slack: 0.25},
			Work:     WorkSpec{Base: 0.2, Spread: 0.1},
			Params:   ParamSpec{Prep: 0.03, PrepSpread: 0.02, Collect: 0.08, CollectSpread: 0.05, Amp: 0.25},
		}
	}
	cases := []struct {
		name, src string
		want      func() Spec
	}{
		{"minimal", `{"kernel": "halo1d", "ranks": 4}`, minimal},
		{"empty-sections", `{"kernel": "halo1d", "ranks": 4, "topology": {}, "placement": [],
			"schedule": {}, "work": {}, "params": {}, "faults": {}}`, func() Spec {
			sp := minimal()
			sp.Placement = []PlaceSpec{}
			return sp
		}},
		{"null-is-absent", `{"kernel": "halo1d", "ranks": 4, "seed": null, "topology": null,
			"placement": null, "work": {"base": null}, "faults": {"stragglers": null}}`, minimal},
		{"partial-sections", `{"kernel": "halo1d", "ranks": 4, "format": "v1", "topology": {"preset": "viola"},
			"schedule": {"slack": 1}, "work": {"spread": 0}, "params": {"amp": 2}}`, func() Spec {
			sp := minimal()
			sp.Format = trace.FormatV1
			sp.Topology.Preset = "viola"
			sp.Schedule.Slack = 1
			sp.Work.Spread = 0
			sp.Params.Amp = 2
			return sp
		}},
		{"list-elements", `{"kernel": "halo1d", "ranks": 4,
			"topology": {"metahosts": [
				{"nodes": 2, "internal": {"latency_us": 20, "bandwidth_gbps": 8}},
				{"nodes": 2, "internal": {"latency_us": 20, "bandwidth_gbps": 8, "dedicated": false},
				 "node_local": {"latency_us": 1, "bandwidth_gbps": 80}, "clock": {"synchronized": true}}]},
			"placement": [{"nodes": 2}, {"metahost": 1, "nodes": 2}],
			"faults": {"stragglers": [{"rank": 1}], "cross_traffic": [{"from": 2.5, "to": 3}],
			           "truncate": [{"rank": 1}]}}`, func() Spec {
			sp := minimal()
			link := LinkSpec{LatencyUS: 20, BandwidthGbps: 8}
			shared := link
			shared.Dedicated = new(bool)
			sp.Topology = TopoSpec{Count: 2, Metahosts: []MetahostSpec{
				{Name: "MHA", Nodes: 2, CPUs: 1, Speed: 1, Internal: link,
					Clock: ClockSpec{MaxOffsetMS: 5, MaxDriftPPM: 2}},
				{Name: "MHB", Nodes: 2, CPUs: 1, Speed: 1, Internal: shared,
					NodeLocal: &LinkSpec{LatencyUS: 1, BandwidthGbps: 80},
					Clock:     ClockSpec{MaxOffsetMS: 5, MaxDriftPPM: 2, Synchronized: true}},
			}}
			sp.Placement = []PlaceSpec{{Nodes: 2, PerNode: 1}, {Metahost: 1, Nodes: 2, PerNode: 1}}
			sp.Faults = FaultSpec{
				Stragglers:   []StragglerSpec{{Rank: 1, Factor: 2, To: 1 << 30}},
				CrossTraffic: []BurstSpec{{From: 2.5, To: 3, ExtraMS: 1, Class: "external"}},
				Truncate:     []TruncateSpec{{Rank: 1, Keep: 0.5}},
			}
			return sp
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, err := Parse([]byte(c.src))
			if err != nil {
				t.Fatal(err)
			}
			if want := c.want(); !reflect.DeepEqual(*got, want) {
				t.Errorf("got  %+v\nwant %+v", *got, want)
			}
		})
	}
}

func TestParseJSON(t *testing.T) {
	t.Parallel()
	src := `{
		"kernel": "straggler",
		"ranks": 4,
		"work": {"base": 0.15, "spread": 0},
		"faults": {"stragglers": [{"rank": 2, "factor": 3.0, "from": 1, "to": 2}]}
	}`
	sp, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kernel != KernelStraggler || len(sp.Faults.Stragglers) != 1 {
		t.Fatalf("got %+v", sp)
	}
	if s := sp.Faults.Stragglers[0]; s.Rank != 2 || s.Factor != 3.0 || s.From != 1 || s.To != 2 {
		t.Fatalf("straggler = %+v", s)
	}
}

func TestParseNesting(t *testing.T) {
	t.Parallel()
	src := `
{
  "kernel": "halo1d",
  "ranks": 4,
  "topology": {
    "metahosts": [
      {"name": "A", "nodes": 2, "internal": {"latency_us": 20, "bandwidth_gbps": 8}},
      {
        "name": "B",
        "nodes": 2,
        "internal": {
          "latency_us": 25,
          "bandwidth_gbps": 8
        }
      }
    ]
  },
  "placement": [
    {"metahost": 0, "nodes": 2, "per_node": 1},
    {"metahost": 1, "nodes": 2, "per_node": 1}
  ]
}
`
	sp, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Topology.Metahosts) != 2 {
		t.Fatalf("metahosts: %+v", sp.Topology.Metahosts)
	}
	if sp.Topology.Metahosts[1].Internal.LatencyUS != 25 {
		t.Errorf("nested link: %+v", sp.Topology.Metahosts[1].Internal)
	}
	if len(sp.Placement) != 2 || sp.Placement[1].Metahost != 1 {
		t.Errorf("placement: %+v", sp.Placement)
	}
}

// TestLibraryRoundTrip: a Spec marshalled by encoding/json is a
// document Parse decodes back to the same Spec — what a scenario
// generator relies on.
func TestLibraryRoundTrip(t *testing.T) {
	t.Parallel()
	for _, name := range LibraryNames() {
		src, err := LibrarySource(name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		doc, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := Parse(doc)
		if err != nil {
			t.Fatalf("%s: Parse(Marshal(spec)): %v\n%s", name, err, doc)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Errorf("%s: round trip changed the spec\ngot  %+v\nwant %+v", name, back, sp)
		}
	}
}

// doc wraps extra top-level members into an otherwise valid document.
func doc(members string) string {
	return `{"kernel": "halo1d", "ranks": 4, ` + members + `}`
}

// list returns a JSON list of n copies of one element.
func list(n int, element string) string {
	return "[" + strings.TrimSuffix(strings.Repeat(element+",", n), ",") + "]"
}

// oneMetahost is a "topology" member with one custom metahost, extra
// appended to that metahost's own members.
func oneMetahost(extra string) string {
	return `"topology": {"metahosts": [{"name": "A", "nodes": 4, "internal": {"latency_us": 20, "bandwidth_gbps": 8}` + extra + `}]}`
}

// TestParseErrors sweeps hostile documents: each must produce a
// structured *Error (never a panic) that mentions the offending key
// or path, with the 1-based line for syntax and type errors outside a
// list element and no line otherwise.
func TestParseErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name, src, wantSub string
		wantLine           int
	}{
		{"empty", "", "empty", 0},
		{"unknown-key", doc(`"bogus": 1`), `"bogus"`, 0},
		{"unknown-key-nested", doc(`"work": {"bsae": 1}`), `"bsae"`, 0},
		{"unknown-key-in-list-element", doc(`"faults": {"stragglers": [{"rank": 1, "fctor": 2}]}`), `faults.stragglers[]: unknown key "fctor"`, 0},
		{"unknown-key-in-element-link", doc(strings.Replace(oneMetahost(""), `"latency_us": 20`, `"latency_us": 20, "mtu": 9000`, 1)), `"mtu"`, 0},
		{"go-field-name", `{"Kernel": "halo1d", "ranks": 4, "PerNode": 1}`, `"PerNode"`, 0},
		{"unknown-kernel", `{"kernel": "warp", "ranks": 4}`, "kernel", 0},
		{"zero-ranks", `{"kernel": "halo1d", "ranks": 0}`, "ranks", 0},
		{"one-rank", `{"kernel": "halo1d", "ranks": 1}`, "ranks", 0},
		{"too-many-ranks", `{"kernel": "halo1d", "ranks": 100000}`, "ranks", 0},
		{"huge-ranks", `{"kernel": "halo1d", "ranks": 1e99}`, "ranks: expected an integer", 1},
		{"nan-drift", "{\"kernel\": \"halo1d\", \"ranks\": 4,\n" + oneMetahost(",\n\"clock\": {\"max_drift_ppm\": NaN}") + "}", "invalid character 'N'", 3},
		{"infinity", doc(`"work": {"base": Infinity}`), "invalid character 'I'", 1},
		{"float-overflow", doc(`"work": {"base": 1e999}`), "work.base: expected a number", 1},
		{"zero-slack", doc(`"schedule": {"slack": 0}`), "schedule.slack: want 0.05..100 seconds, got 0", 0},
		{"negative-latency", doc(strings.Replace(oneMetahost(""), "20", "-5", 1)), "latency", 0},
		{"missing-link", doc(`"topology": {"metahosts": [{"nodes": 4}]}`), "topology.metahosts[0].internal.latency_us", 0},
		{"grid-mismatch", `{"kernel": "halo2d", "ranks": 5, "params": {"px": 2, "py": 2}}`, "halo2d", 0},
		{"placement-mismatch", doc(`"placement": [{"metahost": 0, "nodes": 3, "per_node": 1}]`), "placement", 0},
		{"bad-bool", doc(`"topology": {"asymmetry": "maybe"}`), "topology.asymmetry: expected true or false", 1},
		{"fractional-int", "{\"kernel\": \"halo1d\",\n\"ranks\": 4.0}", "ranks: expected an integer, got number 4.0", 2},
		{"string-for-int", "{\"kernel\": \"halo1d\", \"ranks\": 4,\n\n\"topology\": {\"count\": \"2\"}}", "topology.count: expected an integer, got string", 3},
		{"number-for-string", doc(`"format": 1`), "format: expected a string", 1},
		{"unknown-format", doc(`"format": "v9"`), `unknown format "v9"`, 0},
		{"object-for-list", "{\"kernel\": \"halo1d\", \"ranks\": 4,\n\"placement\": {}}", "placement: expected a list, got object", 2},
		{"fractional-int-in-list-element", doc(`"faults": {"stragglers": [{"rank": 1.5}]}`), "faults.stragglers[].rank: expected an integer", 0},
		{"number-for-list-element", doc(`"faults": {"truncate": [7]}`), "faults.truncate[]: expected an object, got number", 0},
		{"straggler-rank-oob", doc(`"faults": {"stragglers": [{"rank": 9, "factor": 2}]}`), "rank", 0},
		{"burst-backwards", doc(`"faults": {"cross_traffic": [{"from": 5, "to": 3, "extra_ms": 1}]}`), "from", 0},
		{"truncate-keep", doc(`"faults": {"truncate": [{"rank": 1, "keep": 1.5}]}`), "keep", 0},
		{"preset-and-custom", doc(`"topology": {"preset": "conformance", "metahosts": [{"name": "A", "nodes": 4, "internal": {"latency_us": 20, "bandwidth_gbps": 8}}]}`), "mutually exclusive", 0},
		{"too-many-placements", doc(`"placement": ` + list(maxListLen+1, `{"nodes": 1}`)), "placement: list has 65 entries", 0},
		{"too-many-stragglers", doc(`"faults": {"stragglers": ` + list(maxListLen+1, `{"rank": 1}`) + `}`), "faults.stragglers: list has 65 entries", 0},
		{"too-many-bursts", doc(`"faults": {"cross_traffic": ` + list(maxListLen+1, `{"from": 2.5, "to": 3}`) + `}`), "faults.cross_traffic: list has 65 entries", 0},
		{"too-many-truncations", doc(`"faults": {"truncate": ` + list(maxListLen+1, `{"rank": 1}`) + `}`), "faults.truncate: list has 65 entries", 0},
		{"bad-json", `{"kernel": `, "json", 0},
		{"bad-json-line", "{\"kernel\": \"halo1d\",\n\"ranks\": 4,\n\"seed\" 7}", "scenario documents are JSON", 3},
		{"top-level-list", "[1,2]", "expected an object, got array", 1},
		{"top-level-string", `"halo1d"`, "expected an object, got string", 1},
		{"trailing-content", "{\"kernel\": \"halo1d\", \"ranks\": 4}\n{\"kernel\": \"halo1d\", \"ranks\": 4}", "after the scenario object", 2},
		{"trailing-garbage", `{"kernel": "halo1d", "ranks": 4} ]`, "after the scenario object", 1},
		{"yaml-body", "# a scenario from before the switch\nkernel: halo1d\nranks: 4\n", "scenario documents are JSON", 1},
		{"oversized", doc(`"name": "` + strings.Repeat("x", 1<<20) + `"`), "1 MiB", 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			_, err := Parse([]byte(c.src))
			if err == nil {
				t.Fatalf("Parse accepted %q", c.src)
			}
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *scenario.Error: %v", err, err)
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.wantSub)) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
			if se.Line != c.wantLine {
				t.Errorf("error %q: line %d, want %d", err, se.Line, c.wantLine)
			}
		})
	}
}

// TestParseLenient pins what encoding/json accepts that a stricter
// reader might not, so a change of decoder shows up as a failure.
func TestParseLenient(t *testing.T) {
	t.Parallel()
	sp, err := Parse([]byte("\t{\"KERNEL\": \"halo1d\", \"ranks\": 8, \"ranks\": 4}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kernel != KernelHalo1D {
		t.Errorf("keys match case-insensitively: kernel = %q", sp.Kernel)
	}
	if sp.Ranks != 4 {
		t.Errorf("the last of a repeated key wins: ranks = %d", sp.Ranks)
	}
}

// TestValidateListLimit: the list limit binds a Spec edited in Go, not
// only a decoded document.
func TestValidateListLimit(t *testing.T) {
	t.Parallel()
	sp, err := Parse([]byte(`{"kernel": "halo1d", "ranks": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= maxListLen; i++ {
		sp.Faults.Stragglers = append(sp.Faults.Stragglers, StragglerSpec{Rank: 1, Factor: 2, To: 1})
	}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "faults.stragglers: list has 65 entries") {
		t.Errorf("Validate = %v, want the list limit", err)
	}
}

// TestCompileErrors covers semantic failures only Compile can detect.
func TestCompileErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name, src, wantSub string
	}{
		{"burst-under-align", doc(`"faults": {"cross_traffic": [{"from": 0.5, "to": 2.5, "extra_ms": 1}]}`), "schedule.align"},
		{"burst-past-end", doc(`"faults": {"cross_traffic": [{"from": 2.5, "to": 900, "extra_ms": 1}]}`), "last phase"},
		{"placement-node-overflow", doc(`"topology": {"metahosts": [{"name": "A", "nodes": 2, "internal": {"latency_us": 20, "bandwidth_gbps": 8}}]}`), "placement"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			_, err := Load([]byte(c.src))
			if err == nil {
				t.Fatalf("Load accepted %q", c.src)
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.wantSub)) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}
