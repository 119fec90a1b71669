package scenario

import (
	"errors"
	"testing"
)

// FuzzScenarioParse feeds arbitrary documents through the full
// Parse+Compile front end. The contract under fuzzing: never panic,
// never hang, and every rejection is a structured *Error. The seed
// corpus (f.Add below plus testdata/fuzz/FuzzScenarioParse) mixes the
// shipped library with hostile documents so the fuzzer starts from
// both sides of the validity boundary.
func FuzzScenarioParse(f *testing.F) {
	for _, name := range LibraryNames() {
		src, err := LibrarySource(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, hostile := range []string{
		"",
		`{"kernel": "halo1d"}`,
		`{"kernel": "halo1d", "ranks": 0}`,
		`{"kernel": "halo2d", "ranks": 7, "params": {"px": 2, "py": 2}}`,
		`{"kernel": "halo1d", "ranks": 4, "topology": {"metahosts": [{"name": "A", "nodes": 4, "internal": {"latency_us": -1, "bandwidth_gbps": 8}}]}}`,
		`{"kernel": "halo1d", "ranks": 4, "topology": {"metahosts": [{"name": "A", "nodes": 4, "internal": {"latency_us": 20, "bandwidth_gbps": 8}, "clock": {"max_drift_ppm": NaN}}]}}`,
		`{"kernel": "halo1d", "ranks": 4, "faults": {"truncate": [{"rank": 1, "keep": -3}]}}`,
		`{"kernel": "halo1d", "ranks": 1e99}`,
		// A document in the indentation-based form Parse read before
		// scenario documents became JSON: must be rejected, not guessed at.
		"kernel: halo1d\nranks: 4\ntopology:\n  preset: conformance\nplacement:\n  - {metahost: 0, nodes: 4}\n",
		"\xff\xfe\x00bogus",
		`{"a": [[[[[{,}]]]]]}`,
	} {
		f.Add([]byte(hostile))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		sp, err := Parse(src)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("Parse error is %T, want *scenario.Error: %v", err, err)
			}
			if sp != nil {
				t.Fatal("Parse returned both a spec and an error")
			}
			return
		}
		if sp == nil {
			t.Fatal("Parse returned neither spec nor error")
		}
		// A spec that parsed and validated must also compile without
		// panicking; compile-time rejections stay structured.
		if _, err := sp.Compile(); err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("Compile error is %T, want *scenario.Error: %v", err, err)
			}
		}
	})
}
