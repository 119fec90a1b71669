package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Hard limits keeping compiled scenarios bounded whatever the input —
// the fuzz harness feeds Parse arbitrary documents.
const (
	maxRanks      = 4096
	maxIterations = 64
	maxMetahosts  = 16
	maxNodes      = 1024
	maxListLen    = 64
	maxSteps      = 50000 // ranks × phases ceiling after compilation
)

// Parse decodes and validates a scenario document: one JSON object of
// at most 1 MiB. A key the document leaves out (or sets to null) keeps
// the default seeded here, or in UnmarshalJSON for the elements of a
// list. Unknown keys at any depth, wrong-typed values and anything
// after the object are errors. It returns a *Error and never panics,
// whatever the input.
func Parse(src []byte) (*Spec, error) {
	if len(src) > 1<<20 {
		return nil, errAt(0, "", "document larger than 1 MiB")
	}
	sp := &Spec{
		Seed:       1,
		Iterations: 2,
		Bytes:      2048,
		Topology:   TopoSpec{Count: 2},
		Schedule:   ScheduleSpec{Slack: 0.25},
		Work:       WorkSpec{Base: 0.2, Spread: 0.1},
		Params:     ParamSpec{Prep: 0.03, PrepSpread: 0.02, Collect: 0.08, CollectSpread: 0.05, Amp: 0.25},
	}
	if err := decodeStrict(src, sp); err != nil {
		return nil, asError(src, "", err)
	}
	t := &sp.Topology
	if t.Preset == "" && len(t.Metahosts) == 0 {
		t.Preset = "conformance"
	}
	for i := range t.Metahosts {
		if t.Metahosts[i].Name == "" {
			t.Metahosts[i].Name = fmt.Sprintf("MH%c", 'A'+i%26)
		}
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Schedule.Align == 0 {
		if _, place, err := sp.buildTopology(); err == nil {
			sp.deriveAlign(place.Ranks) // else Compile reports the placement
		}
	}
	return sp, nil
}

// Load is Parse followed by Compile.
func Load(src []byte) (*Program, error) {
	sp, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return sp.Compile()
}

// decodeStrict decodes b, one JSON value and nothing after it, into v,
// rejecting keys v has no field for.
func decodeStrict(b []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errAt(lineOf(b, dec.InputOffset()), "", "unexpected content after the scenario object")
	}
	return nil
}

// The elements of a list start from their own defaults, and
// DisallowUnknownFields does not reach into a custom unmarshaler, so
// each re-enters decodeStrict through a method-less copy of its type.
// encoding/json hands UnmarshalJSON the element's bytes alone: the
// errors carry the list's path without an index, and no line.

func (m *MetahostSpec) UnmarshalJSON(b []byte) error {
	type plain MetahostSpec
	*m = MetahostSpec{CPUs: 1, Speed: 1.0, Clock: ClockSpec{MaxOffsetMS: 5, MaxDriftPPM: 2}}
	return decodeElement(b, "topology.metahosts[]", (*plain)(m))
}

func (p *PlaceSpec) UnmarshalJSON(b []byte) error {
	type plain PlaceSpec
	*p = PlaceSpec{PerNode: 1}
	return decodeElement(b, "placement[]", (*plain)(p))
}

func (s *StragglerSpec) UnmarshalJSON(b []byte) error {
	type plain StragglerSpec
	*s = StragglerSpec{Rank: -1, Factor: 2.0, To: 1 << 30}
	return decodeElement(b, "faults.stragglers[]", (*plain)(s))
}

func (s *BurstSpec) UnmarshalJSON(b []byte) error {
	type plain BurstSpec
	*s = BurstSpec{ExtraMS: 1.0, Class: "external"}
	return decodeElement(b, "faults.cross_traffic[]", (*plain)(s))
}

func (s *TruncateSpec) UnmarshalJSON(b []byte) error {
	type plain TruncateSpec
	*s = TruncateSpec{Rank: -1, Keep: 0.5}
	return decodeElement(b, "faults.truncate[]", (*plain)(s))
}

func decodeElement(b []byte, path string, v interface{}) error {
	if err := decodeStrict(b, v); err != nil {
		return asError(nil, path, err)
	}
	return nil
}

// asError maps a decoding failure onto *Error. The offsets in err
// index src; src is nil when they do not (a list element's bytes), and
// the line is then left out. path is where the decoded value sits in
// the document.
func asError(src []byte, path string, err error) *Error {
	var (
		own *Error
		syn *json.SyntaxError
		typ *json.UnmarshalTypeError
	)
	switch {
	case errors.As(err, &own):
		return own
	case err == io.EOF:
		return errAt(0, path, "empty document")
	case err == io.ErrUnexpectedEOF:
		return errAt(0, path, "scenario documents are JSON: unexpected end of document")
	case errors.As(err, &syn):
		// The offending byte is the last of the Offset bytes read.
		return errAt(lineOf(src, syn.Offset-1), path, "scenario documents are JSON: %v", syn)
	case errors.As(err, &typ):
		if typ.Field != "" {
			path = strings.TrimPrefix(path+"."+typ.Field, ".")
		}
		return errAt(lineOf(src, typ.Offset), path, "expected %s, got %s", wantedKind(typ.Type), typ.Value)
	}
	// encoding/json has no type for this one.
	if key, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		return errAt(0, path, "unknown key %s", key)
	}
	return errAt(0, path, "%v", err)
}

// lineOf returns the 1-based line of src[off], 0 without a source.
func lineOf(src []byte, off int64) int {
	if src == nil {
		return 0
	}
	off = max(0, min(off, int64(len(src))))
	return 1 + bytes.Count(src[:off], []byte{'\n'})
}

func wantedKind(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Int, reflect.Int64:
		return "an integer"
	case reflect.Float64:
		return "a number"
	case reflect.Bool:
		return "true or false"
	case reflect.String, reflect.Uint8: // Uint8 is trace.Format, written "v1" or "v2"
		return "a string"
	case reflect.Slice:
		return "a list"
	default:
		return "an object"
	}
}
