package jsonwtest

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestPoolsCoverTheRules: the property tests are only as strong as these
// pools; trimming one of the classes away must fail here.
func TestPoolsCoverTheRules(t *testing.T) {
	all := strings.Join(Strings, "")
	for _, need := range []string{`"`, `\`, "<", ">", "&", "\t", "\b", "\x00", "\x7f", "\u2028", "\u2029", "\U0001F600"} {
		if !strings.Contains(all, need) {
			t.Errorf("no string holds %q", need)
		}
	}
	invalid, empty := 0, false
	for _, s := range Strings {
		if !utf8.ValidString(s) {
			invalid++
		}
		empty = empty || s == ""
	}
	if invalid < 3 || !empty {
		t.Errorf("%d strings of invalid UTF-8 (want 3 kinds), empty string present: %v", invalid, empty)
	}
	var small, large, negZero, subnormal, beyond53 bool
	for _, f := range Floats {
		abs := math.Abs(f)
		small = small || (abs != 0 && abs < 1e-6)
		large = large || abs >= 1e21
		negZero = negZero || (f == 0 && math.Signbit(f))
		subnormal = subnormal || (abs != 0 && abs < 2.2250738585072014e-308)
		beyond53 = beyond53 || (abs > 1<<53 && abs < 1e19 && f == math.Trunc(f))
	}
	if !small || !large || !negZero || !subnormal || !beyond53 {
		t.Errorf("floats miss a class: below 1e-6 %v, from 1e21 %v, -0 %v, subnormal %v, integer above 2^53 %v",
			small, large, negZero, subnormal, beyond53)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if f := Float(rng); f-f != 0 {
			t.Fatalf("Float drew %v", f)
		}
	}
}
