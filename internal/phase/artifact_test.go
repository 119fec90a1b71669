package phase

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"metascope/internal/jsonw/jsonwtest"
)

func TestFamilyOf(t *testing.T) {
	cases := map[string]string{
		"mpi.late_sender":             "mpi.late_sender",
		"mpi.late_sender.grid":        "mpi.late_sender",
		"mpi.late_sender.wrong_order": "mpi.late_sender",
		"mpi.wait_barrier.grid":       "mpi.wait_barrier",
	}
	for in, want := range cases {
		if got := FamilyOf(in); got != want {
			t.Fatalf("FamilyOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func testSeg() *Segmentation {
	return &Segmentation{
		Bounds: []float64{0, 10, 20},
		Sigs:   []uint64{0xa1, 0xa2},
		Kinds:  []uint64{0xb1, 0xb2},
		Counts: []int{3, 3},
		Period: 1,
	}
}

func TestAccumulatorFoldsByPhaseFamilyMetahost(t *testing.T) {
	acc := NewAccumulator(testSeg(), 4)
	acc.SetMetahostName(0, "viola-a")
	acc.Add("mpi.late_sender", 0, 1.0, 0.5)
	acc.Add("mpi.late_sender.grid", 0, 2.0, 0.25) // folds into the family
	acc.Add("mpi.late_sender", 0, 15.0, 1.5)      // second phase
	acc.Add("mpi.wait_barrier", 1, 3.0, 2.0)
	acc.Add("mpi.wait_barrier", 1, 4.0, 0) // zero severities are dropped
	p := acc.Snapshot("t")
	if p.Title != "t" || p.Ranks != 4 || p.Period != 1 || len(p.Phases) != 2 {
		t.Fatalf("header wrong: %+v", p)
	}
	wantP0 := []SevRow{
		{Family: "mpi.late_sender", Metahost: 0, MetahostName: "viola-a", Severity: 0.75},
		{Family: "mpi.wait_barrier", Metahost: 1, Severity: 2.0},
	}
	if !reflect.DeepEqual(p.Phases[0].Rows, wantP0) {
		t.Fatalf("phase 0 rows = %+v, want %+v", p.Phases[0].Rows, wantP0)
	}
	if got := p.SeverityAt(1, "mpi.late_sender", 0); got != 1.5 {
		t.Fatalf("SeverityAt(1) = %g, want 1.5", got)
	}
	if got := p.SeverityAt(7, "mpi.late_sender", 0); got != 0 {
		t.Fatalf("SeverityAt out of range = %g, want 0", got)
	}
	if got := p.FamilyTotal("mpi.late_sender"); got != 2.25 {
		t.Fatalf("FamilyTotal = %g, want 2.25", got)
	}
	if p.Phases[0].Sig != sigString(0xa1) || p.Phases[1].Kinds != sigString(0xb2) {
		t.Fatalf("signatures not carried: %+v", p.Phases)
	}
}

func TestArtifactJSONRoundTrip(t *testing.T) {
	acc := NewAccumulator(testSeg(), 4)
	acc.SetMetahostName(1, "ibm-power")
	acc.Add("mpi.late_sender", 1, 1.0, 0.125)
	p := acc.Snapshot("round-trip")
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, p)
	}
	var again bytes.Buffer
	if err := got.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-serialization is not byte-identical")
	}
}

func TestArtifactCSV(t *testing.T) {
	acc := NewAccumulator(testSeg(), 4)
	acc.SetMetahostName(0, "a,b") // must be escaped
	acc.Add("mpi.late_sender", 0, 1.0, 0.5)
	var buf bytes.Buffer
	if err := acc.Snapshot("").WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// header comment + column header + one cell line + one empty-phase line
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "# ranks=4 period=1") {
		t.Fatalf("bad comment header: %s", lines[0])
	}
	if !strings.Contains(lines[2], `"a,b"`) {
		t.Fatalf("metahost name not escaped: %s", lines[2])
	}
	if !strings.HasSuffix(lines[3], ",,,,") {
		t.Fatalf("empty phase line missing: %s", lines[3])
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"ranks":2,"period":0,"phases":[]}`,
		`{"ranks":2,"period":1,"phases":[{"index":1,"start":0,"end":1}]}`,
		`{"ranks":2,"period":1,"phases":[{"index":0,"start":5,"end":1}]}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("Read accepted malformed artifact %s", c)
		}
	}
}

// drawArtifact draws an artifact Read accepts: absent and present
// omitempty fields, no phases (nil and empty), phases without rows.
func drawArtifact(rng *rand.Rand) *Profile {
	p := &Profile{Title: jsonwtest.String(rng), Ranks: rng.Intn(2000), Period: 1 + rng.Intn(9), Pre: rng.Intn(3), Post: rng.Intn(3)}
	switch rng.Intn(5) {
	case 0: // nil phases
	case 1:
		p.Phases = []PhaseRow{}
	default:
		p.Phases = make([]PhaseRow, 1+rng.Intn(4))
	}
	for i := range p.Phases {
		ph := &p.Phases[i]
		ph.Index, ph.Ops = i, rng.Intn(1e6)
		ph.Start, ph.End = jsonwtest.Float(rng), jsonwtest.Float(rng)
		if ph.End < ph.Start {
			ph.Start, ph.End = ph.End, ph.Start
		}
		ph.Sig, ph.Kinds = sigString(rng.Uint64()), jsonwtest.String(rng)
		switch n := rng.Intn(5); n {
		case 0: // no rows: omitted
		case 1:
			ph.Rows = []SevRow{}
		default:
			ph.Rows = make([]SevRow, n-1)
		}
		for j := range ph.Rows {
			ph.Rows[j] = SevRow{Family: jsonwtest.String(rng), Metahost: rng.Intn(5) - 1, MetahostName: jsonwtest.String(rng), Severity: jsonwtest.Float(rng)}
		}
	}
	return p
}

// TestWriteJSONMatchesEncodingJSON holds the hand-written writer to its
// definition: json.Marshal of the same struct, plus a newline.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2500; i++ {
		p := drawArtifact(rng)
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		var got bytes.Buffer
		if err := p.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("draw %d: WriteJSON differs from json.Marshal:\n got %s\nwant %s", i, got.Bytes(), want)
		}
		back, err := Read(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("draw %d: Read rejects what WriteJSON wrote: %v\n%s", i, err, got.Bytes())
		}
		if diff := roundTripDiff(p, back); diff != "" {
			t.Fatalf("draw %d: Read(WriteJSON(p)) != p: %s\n%s", i, diff, got.Bytes())
		}
	}
}

// roundTripDiff names the first field of back, decoded from p's JSON,
// that is not p's: floats by bits (so -0 stays -0), strings as they are
// unless p's was not valid UTF-8 (that byte-for-U+FFFD replacement is the
// encoding's, and one-way), row lists by length: omitempty writes an
// empty one as absent, which reads back nil.
func roundTripDiff(p, back *Profile) string {
	str := func(a, b string) bool { return a == b || !utf8.ValidString(a) }
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !str(p.Title, back.Title):
		return "title"
	case p.Ranks != back.Ranks || p.Period != back.Period || p.Pre != back.Pre || p.Post != back.Post:
		return "header"
	case (p.Phases == nil) != (back.Phases == nil) || len(p.Phases) != len(back.Phases):
		return "phase list"
	}
	for i := range p.Phases {
		a, b := &p.Phases[i], &back.Phases[i]
		switch {
		case a.Index != b.Index || a.Ops != b.Ops || !bits(a.Start, b.Start) || !bits(a.End, b.End):
			return fmt.Sprintf("phase %d numbers", i)
		case a.Sig != b.Sig || !str(a.Kinds, b.Kinds):
			return fmt.Sprintf("phase %d signatures", i)
		case len(a.Rows) != len(b.Rows):
			return fmt.Sprintf("phase %d rows", i)
		}
		for j := range a.Rows {
			x, y := a.Rows[j], b.Rows[j]
			if !str(x.Family, y.Family) || !str(x.MetahostName, y.MetahostName) || x.Metahost != y.Metahost || !bits(x.Severity, y.Severity) {
				return fmt.Sprintf("phase %d row %d: %+v became %+v", i, j, x, y)
			}
		}
	}
	return ""
}

// TestWriteJSONRefusesNonFinite: a value JSON cannot carry is
// encoding/json's error, and not one byte reaches the destination.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 300; i++ {
		p := drawArtifact(rng)
		p.Phases = append(p.Phases, PhaseRow{Index: len(p.Phases), Rows: []SevRow{{Family: "f", Severity: 1}}})
		last := &p.Phases[len(p.Phases)-1]
		v := bad[rng.Intn(len(bad))]
		switch rng.Intn(3) {
		case 0:
			last.Start = v
		case 1:
			last.End = v
		default:
			last.Rows[0].Severity = v
		}
		_, want := json.Marshal(p)
		var got bytes.Buffer
		err := p.WriteJSON(&got)
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) || err.Error() != want.Error() {
			t.Fatalf("draw %d: WriteJSON = %v, want %v", i, err, want)
		}
		if got.Len() != 0 {
			t.Fatalf("draw %d: %d bytes written before the error", i, got.Len())
		}
	}
}
