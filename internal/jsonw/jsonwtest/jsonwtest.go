// Package jsonwtest draws the strings and numbers on which a JSON writer
// can disagree with encoding/json, for the property tests that hold
// internal/jsonw and the artifact writers built on it to
// json.MarshalIndent's bytes.
package jsonwtest

import (
	"math"
	"math/rand"
)

// Strings need every escaping rule encoding/json has: quote and
// backslash, the HTML-unsafe three, control bytes with and without a
// short form, the two separators escaped above ASCII, invalid UTF-8 (a
// stray continuation, a truncated sequence, an overlong form), and the
// empty string, which omitempty drops.
var Strings = []string{
	"", "FZJ", `say "hi"`, `back\slash`, "<a href='x'>&amp;</a>", "tab\there", "bell\a\b\f\n\r", "\x00\x1f\x7f",
	"line\u2028sep\u2029", "caf\u00e9 \U0001F600", "\xff\xfe", "trunc\xe2\x80", "\xc0\xaf", "a\xf0\x9f\x98",
}

// Floats sit on encoding/json's format switches ('e' below 1e-6 and from
// 1e21), on the exponent clean-up (e-07 is written e-7), on the sign of
// zero, and at the ends of the range: subnormals, MaxFloat64, integers
// above 2^53.
var Floats = []float64{
	0, math.Copysign(0, -1), 1, 0.5, -2.75, 0.1, 1e-7, 1.5e-9, 1e-10, 1e-100,
	math.Nextafter(1e-6, 0), 1e-6, 1.0000000000000002e-6,
	1e20, math.Nextafter(1e21, 0), 1e21, 1e22, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1 << 53, 1<<53 + 2, 9007199254740993, 123456789012345680000,
}

// String draws one of Strings, or two of them joined.
func String(rng *rand.Rand) string {
	s := Strings[rng.Intn(len(Strings))]
	if rng.Intn(3) == 0 {
		s += Strings[rng.Intn(len(Strings))]
	}
	return s
}

// Float draws a finite float64: one of Floats, a value of everyday
// magnitude, or 64 random bits.
func Float(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return Floats[rng.Intn(len(Floats))]
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); f-f == 0 {
			return f
		}
	}
}
