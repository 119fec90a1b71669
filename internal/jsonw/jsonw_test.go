package jsonw

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"metascope/internal/jsonw/jsonwtest"
)

// doc is a value with every shape the Writer has a call for.
type doc struct {
	S     string    `json:"s"`
	F     float64   `json:"f"`
	I     int64     `json:"i"`
	Nil   []float64 `json:"nil"`
	Empty []float64 `json:"empty"`
	Obj   struct{}  `json:"obj"`
	Vals  []float64 `json:"vals"`
}

func (d *doc) write(w *Writer) {
	w.Open('{')
	w.Key("s")
	w.String(d.S)
	w.Key("f")
	w.Float(d.F)
	w.Key("i")
	w.Int(d.I)
	w.Key("nil")
	w.Null()
	w.Key("empty")
	w.Open('[')
	w.Close(']')
	w.Key("obj")
	w.Open('{')
	w.Close('}')
	w.Key("vals")
	w.Open('[')
	for _, v := range d.Vals {
		w.Elem()
		w.Float(v)
	}
	w.Close(']')
	w.Close('}')
}

func TestWriterMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 3000; i++ {
		var d doc
		// Every byte value, so every escape and every kind of invalid
		// UTF-8, and the two code points escaped above ASCII.
		raw := make([]byte, rng.Intn(12))
		for j := range raw {
			raw[j] = byte(rng.Intn(256))
		}
		d.S = string(raw)
		if rng.Intn(4) == 0 {
			d.S += jsonwtest.String(rng)
		}
		draw := func() float64 {
			if rng.Intn(2) == 0 {
				return jsonwtest.Floats[rng.Intn(len(jsonwtest.Floats))]
			}
			return math.Float64frombits(rng.Uint64())
		}
		d.F, d.I, d.Empty = draw(), rng.Int63()-rng.Int63(), []float64{}
		d.Vals = make([]float64, rng.Intn(4))
		for j := range d.Vals {
			d.Vals[j] = draw()
		}
		want, err := json.Marshal(&d)
		if err != nil {
			var uv *json.UnsupportedValueError
			if !errors.As(err, &uv) {
				t.Fatal(err)
			}
			continue // a NaN or Inf drawn from the bits: Unsupported's case
		}
		var got bytes.Buffer
		w := New(&got)
		d.write(w)
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), append(want, '\n')) {
			t.Fatalf("draw %d:\n got %s\nwant %s", i, got.Bytes(), want)
		}
	}
}

func TestUnsupported(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got := Unsupported(f)
		var uv *json.UnsupportedValueError
		if !errors.As(got, &uv) || got.Error() != want.Error() {
			t.Errorf("Unsupported(%v) = %v, want %v", f, got, want)
		}
	}
	for _, f := range jsonwtest.Floats {
		if err := Unsupported(f); err != nil {
			t.Errorf("Unsupported(%v) = %v", f, err)
		}
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n--; f.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestWriterFlushesAndKeepsFirstError: a document larger than the buffer
// reaches the destination in pieces, whole, and a destination that fails
// is reported by End.
func TestWriterFlushesAndKeepsFirstError(t *testing.T) {
	d := doc{Empty: []float64{}, Vals: make([]float64, 20000)}
	for i := range d.Vals {
		d.Vals[i] = float64(i) / 3
	}
	want, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	w := New(&got)
	d.write(w)
	if err := w.End(); err != nil || !bytes.Equal(got.Bytes(), append(want, '\n')) {
		t.Fatalf("large document differs from Marshal (err %v, %d vs %d bytes)", err, got.Len(), len(want)+1)
	}
	if len(want) < 4*flushAt {
		t.Fatalf("document of %d bytes does not exercise the flush", len(want))
	}
	w = New(&failAfter{n: 1})
	d.write(w)
	if err := w.End(); err == nil || err.Error() != "disk full" {
		t.Fatalf("End() = %v, want the destination's error", err)
	}
}

// formatted is what Float writes by the package comment's rule for any
// finite float64: the shortest 'f' form, or 'e' below 1e-6 and from 1e21
// with a two-digit negative exponent cut to one.
func formatted(f float64) string {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	s := strconv.FormatFloat(f, format, -1, 64)
	if n := len(s); format == 'e' && n >= 4 && s[n-4:n-1] == "e-0" {
		s = s[:n-2] + s[n-1:]
	}
	return s
}

// TestFloatIntegral: whichever path an integral value takes — the
// integer one below 2^53 in magnitude, other than −0 — Float writes what
// the float formatter and json.Marshal write, on the edges of that
// range and on integral values drawn across it and beyond.
func TestFloatIntegral(t *testing.T) {
	const max53 = 1<<53 - 1
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 4096, max53, -max53, 1 << 53, -(1 << 53),
		1<<53 + 2, 1e15, 1e20, -1e20, 1e21, 1 << 62, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		bits := 1 + rng.Intn(70) // integers of up to 70 bits: both paths and the edge between them
		f := math.Trunc(math.Ldexp(rng.Float64(), bits))
		if rng.Intn(2) == 0 {
			f = -f
		}
		floats = append(floats, f)
	}
	for _, f := range floats {
		w := New(nil)
		w.Float(f)
		got := string(w.buf)
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got != formatted(f) || got != string(want) {
			t.Fatalf("Float(%v) = %s; the formatter writes %s, Marshal %s", f, got, formatted(f), want)
		}
	}
}
