package cube

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// A line-oriented text format for analysis reports, written into the
// experiment archive as "analysis.cube". The format is intentionally
// diff-friendly:
//
//	mscpcube 1
//	title <quoted>
//	metric <id> <parent> <unit> <key> <quoted-name>
//	call <id> <parent> <quoted-name>
//	loc <id> <rank> <metahost> <node> <quoted-metahost-name>
//	sev <metric> <call> <loc> <value>      (non-zero cells only)
//	end

// Write serializes the report. Each line is appended into one reused
// buffer, so writing allocates the same whatever the report's size.
func (r *Report) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 128)
	put := func() {
		line = append(line, '\n')
		bw.Write(line)
		line = line[:0]
	}
	line = append(line, "mscpcube 1\ntitle "...)
	line = strconv.AppendQuote(line, r.Title)
	put()
	for i, m := range r.Metrics {
		line = append(line, "metric "...)
		line = appendInts(line, i, m.Parent)
		line = append(line, m.Unit...)
		line = append(line, ' ')
		line = append(line, m.Key...)
		line = append(line, ' ')
		line = strconv.AppendQuote(line, m.Name)
		put()
	}
	for i, c := range r.Calls {
		line = append(line, "call "...)
		line = appendInts(line, i, c.Parent)
		line = strconv.AppendQuote(line, c.Name)
		put()
	}
	for i, l := range r.Locs {
		line = append(line, "loc "...)
		line = appendInts(line, i, l.Rank, l.Metahost, l.Node)
		line = strconv.AppendQuote(line, l.MetahostName)
		put()
	}
	// Only rows ever written hold a non-zero cell, visited in (m, c, l)
	// order.
	for m, rows := range r.sev {
		for _, row := range rows {
			for l, v := range row.cells {
				if v != 0 {
					line = append(line, "sev "...)
					line = appendInts(line, m, row.call, l)
					line = strconv.AppendFloat(line, v, 'g', 17, 64) // fmt's %.17g
					put()
				}
			}
		}
	}
	line = append(line, "end"...)
	put()
	return bw.Flush()
}

// appendInts appends each value in decimal, each followed by a space.
func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ' ')
	}
	return b
}

// Read parses a report written by Write.
func Read(rd io.Reader) (*Report, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("cube: empty input")
	}
	if strings.TrimSpace(sc.Text()) != "mscpcube 1" {
		return nil, fmt.Errorf("cube: bad header %q", sc.Text())
	}
	r := &Report{}
	lineNo := 1
	sawEnd := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "end" {
			sawEnd = true
			break
		}
		verb, rest, _ := strings.Cut(line, " ")
		bad := func(err error) (*Report, error) {
			return nil, fmt.Errorf("cube: line %d (%s): %v", lineNo, verb, err)
		}
		switch verb {
		case "title":
			t, err := strconv.Unquote(rest)
			if err != nil {
				return bad(err)
			}
			r.Title = t
		case "metric":
			f := strings.SplitN(rest, " ", 5)
			if len(f) != 5 {
				return bad(fmt.Errorf("want 5 fields, got %d", len(f)))
			}
			id, err1 := strconv.Atoi(f[0])
			parent, err2 := strconv.Atoi(f[1])
			name, err3 := strconv.Unquote(f[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return bad(fmt.Errorf("malformed metric line"))
			}
			if id != len(r.Metrics) {
				return bad(fmt.Errorf("metric ids must be dense and ordered (got %d, want %d)", id, len(r.Metrics)))
			}
			r.Metrics = append(r.Metrics, Metric{Parent: parent, Unit: f[2], Key: f[3], Name: name})
		case "call":
			f := strings.SplitN(rest, " ", 3)
			if len(f) != 3 {
				return bad(fmt.Errorf("want 3 fields, got %d", len(f)))
			}
			id, err1 := strconv.Atoi(f[0])
			parent, err2 := strconv.Atoi(f[1])
			name, err3 := strconv.Unquote(f[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return bad(fmt.Errorf("malformed call line"))
			}
			if id != len(r.Calls) {
				return bad(fmt.Errorf("call ids must be dense and ordered"))
			}
			r.Calls = append(r.Calls, CallNode{Parent: parent, Name: name})
		case "loc":
			f := strings.SplitN(rest, " ", 5)
			if len(f) != 5 {
				return bad(fmt.Errorf("want 5 fields, got %d", len(f)))
			}
			id, err1 := strconv.Atoi(f[0])
			rank, err2 := strconv.Atoi(f[1])
			mh, err3 := strconv.Atoi(f[2])
			node, err4 := strconv.Atoi(f[3])
			name, err5 := strconv.Unquote(f[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
				return bad(fmt.Errorf("malformed loc line"))
			}
			if id != len(r.Locs) {
				return bad(fmt.Errorf("loc ids must be dense and ordered"))
			}
			r.Locs = append(r.Locs, Loc{Rank: rank, Metahost: mh, Node: node, MetahostName: name})
		case "sev":
			f := strings.Fields(rest)
			if len(f) != 4 {
				return bad(fmt.Errorf("want 4 fields, got %d", len(f)))
			}
			m, err1 := strconv.Atoi(f[0])
			c, err2 := strconv.Atoi(f[1])
			l, err3 := strconv.Atoi(f[2])
			v, err4 := strconv.ParseFloat(f[3], 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return bad(fmt.Errorf("malformed sev line"))
			}
			if m < 0 || m >= len(r.Metrics) || c < 0 || c >= len(r.Calls) || l < 0 || l >= len(r.Locs) {
				return bad(fmt.Errorf("sev indices out of range"))
			}
			r.Set(m, c, l, v)
		default:
			return bad(fmt.Errorf("unknown verb"))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEnd {
		return nil, fmt.Errorf("cube: truncated input (missing end marker)")
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}
