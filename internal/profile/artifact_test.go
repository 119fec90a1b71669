package profile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unicode/utf8"

	"metascope/internal/jsonw/jsonwtest"
)

// drawProfile draws an artifact Read accepts: absent and present
// omitempty fields, nil and empty series lists and value rows.
func drawProfile(rng *rand.Rand) *Profile {
	p := &Profile{
		Title:       jsonwtest.String(rng),
		Origin:      jsonwtest.Float(rng),
		BucketWidth: math.Abs(jsonwtest.Float(rng)),
		Buckets:     rng.Intn(6),
	}
	switch rng.Intn(5) {
	case 0: // nil series
	case 1:
		p.Series = []Series{}
	default:
		p.Series = make([]Series, 1+rng.Intn(4))
	}
	for i := range p.Series {
		s := &p.Series[i]
		s.Metric, s.Name, s.Unit = jsonwtest.String(rng), jsonwtest.String(rng), jsonwtest.String(rng)
		s.Metahost, s.MetahostName = rng.Intn(5)-1, jsonwtest.String(rng)
		s.Rank, s.Count = rng.Intn(1000)-1, rng.Int63()-rng.Int63()
		switch n := rng.Intn(p.Buckets + 2); {
		case n == p.Buckets+1: // nil values
		default:
			s.Values = make([]float64, n)
			for j := range s.Values {
				s.Values[j] = jsonwtest.Float(rng)
			}
		}
	}
	return p
}

// TestWriteJSONMatchesEncodingJSON holds the hand-written writer to its
// definition: json.Marshal of the same struct, plus a newline.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2500; i++ {
		p := drawProfile(rng)
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
// that is not p's: floats by bits (so -0 stays -0), nil and empty slices
// apart, strings as they are unless p's was not valid UTF-8 — that one
// byte-for-U+FFFD replacement is the encoding's, and one-way.
func roundTripDiff(p, back *Profile) string {
	str := func(a, b string) bool { return a == b || !utf8.ValidString(a) }
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !str(p.Title, back.Title):
		return "title"
	case !bits(p.Origin, back.Origin) || !bits(p.BucketWidth, back.BucketWidth) || p.Buckets != back.Buckets:
		return "axis"
	case (p.Series == nil) != (back.Series == nil) || len(p.Series) != len(back.Series):
		return "series list"
	}
	for i := range p.Series {
		a, b := &p.Series[i], &back.Series[i]
		switch {
		case !str(a.Metric, b.Metric) || !str(a.Name, b.Name) || !str(a.Unit, b.Unit) || !str(a.MetahostName, b.MetahostName):
			return fmt.Sprintf("series %d strings", i)
		case a.Metahost != b.Metahost || a.Rank != b.Rank || a.Count != b.Count:
			return fmt.Sprintf("series %d integers", i)
		case (a.Values == nil) != (b.Values == nil) || len(a.Values) != len(b.Values):
			return fmt.Sprintf("series %d value row", i)
		}
		for j := range a.Values {
			if !bits(a.Values[j], b.Values[j]) {
				return fmt.Sprintf("series %d value %d: %v became %v", i, j, a.Values[j], b.Values[j])
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
		p := drawProfile(rng)
		p.Buckets = 4
		p.Series = append(p.Series, Series{Metric: "m", Values: []float64{1, 2, 3, 4}})
		v := bad[rng.Intn(len(bad))]
		switch rng.Intn(3) {
		case 0:
			p.Origin = v
		case 1:
			p.BucketWidth = v
		default:
			p.Series[len(p.Series)-1].Values[rng.Intn(4)] = v
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
