// Package jsonw writes compact JSON by appending to one buffer, for the
// artifacts whose size makes encoding/json's reflection the bulk of a
// render: the time-resolved profile and the phase profile. What it
// writes is, byte for byte, what json.Marshal(v) writes for the same
// value — the artifacts' readers, goldens and digests do not know which
// wrote them — so every rule here is encoding/json's:
//
//   - no whitespace: members are separated by ',' alone and a key by ':'
//     from its value; an empty container is "{}" or "[]";
//   - a float64 prints in the shortest form that parses back to it, as
//     digits ('f') unless its magnitude is below 1e-6 or at least 1e21,
//     then with an exponent ('e') whose two-digit negative form loses its
//     leading zero (1e-07 is written 1e-7), and an integral one of
//     magnitude below 2^53 other than −0 is its integer's digits, which
//     is that same form; NaN and ±Inf have no JSON form and are an
//     *json.UnsupportedValueError;
//   - a string escapes '"' and '\\', writes \b \f \n \r \t short and every
//     other control byte as \u00XX, escapes '<', '>' and '&' as \u00XX
//     (Marshal's HTML-safe default), U+2028 and U+2029 as \u2028
//     and \u2029, and replaces each byte of invalid UTF-8 by \ufffd.
//
// Decoding stays with encoding/json: a reader meets files it did not
// write, and reflection's cost there is paid once per file read, not
// once per analysis.
package jsonw

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// flushAt is the buffered size at which a Writer hands its bytes on.
const flushAt = 32 << 10

// Writer appends one JSON document. The caller opens and closes the
// containers and writes members in order: Key before each member of an
// object, Elem before each element of an array, then the value. An error
// of the destination is kept and returned by End; nothing is written
// after it.
type Writer struct {
	w    io.Writer
	buf  []byte
	more bool // the innermost open container has a member already
	err  error
}

// New returns a Writer that writes to w.
func New(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, flushAt+4<<10)}
}

// Unsupported returns the error json.Marshal gives for f when f has no
// JSON form (NaN, ±Inf), else nil. A document is written through a fixed
// buffer, so a caller that must write nothing on such a value checks its
// floats before it starts.
func Unsupported(f float64) error {
	if f-f == 0 {
		return nil
	}
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

func (w *Writer) flush() {
	if w.err == nil {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// sep starts the next member of the innermost container.
func (w *Writer) sep() {
	if len(w.buf) >= flushAt {
		w.flush()
	}
	if w.more {
		w.buf = append(w.buf, ',')
	}
	w.more = true
}

// Key starts an object member named k, which must need no escaping.
func (w *Writer) Key(k string) {
	w.sep()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	w.buf = append(w.buf, '"', ':')
}

// Elem starts an array element.
func (w *Writer) Elem() { w.sep() }

// Open starts a container: c is '{' or '['.
func (w *Writer) Open(c byte) { w.buf, w.more = append(w.buf, c), false }

// Close ends the innermost container, c being '}' or ']', which is then a
// member of the container around it.
func (w *Writer) Close(c byte) { w.buf, w.more = append(w.buf, c), true }

// Null writes null, the form of a nil slice.
func (w *Writer) Null() { w.buf = append(w.buf, "null"...) }

// Int writes an integer.
func (w *Writer) Int(v int64) { w.buf = strconv.AppendInt(w.buf, v, 10) }

// Float writes a finite float64 (see Unsupported).
func (w *Writer) Float(f float64) {
	// An integral value of magnitude below 2^53 is its own shortest form:
	// its digits, as an integer prints them (−0 keeps its sign, below).
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		w.buf = strconv.AppendInt(w.buf, i, 10)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(w.buf); n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
			w.buf[n-2] = w.buf[n-1]
			w.buf = w.buf[:n-1]
		}
	}
}

const hex = "0123456789abcdef"

// String writes a string value.
func (w *Writer) String(s string) {
	b := append(w.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	w.buf = append(b, '"')
}

// End finishes the document with the newline the artifacts end in,
// writes what is still buffered and returns the destination's first
// error.
func (w *Writer) End() error {
	w.buf = append(w.buf, '\n')
	w.flush()
	return w.err
}
