package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"metascope/internal/jsonw"
)

// Profile is the exportable time-resolved severity artifact: one row
// of bucket values per (metric, metahost, rank), all on a common time
// axis. It is the stable interchange format between metascope analyze (which
// writes it), metascope diff (which compares two interval-by-interval), the
// HTML heatmap, and the timeline counter tracks.
type Profile struct {
	Title string `json:"title,omitempty"`
	// Origin is the corrected time of bucket 0's left edge (seconds).
	Origin float64 `json:"origin"`
	// BucketWidth is the common bucket width in seconds.
	BucketWidth float64 `json:"bucket_width"`
	// Buckets is the fixed bucket count of every series.
	Buckets int      `json:"buckets"`
	Series  []Series `json:"series"`
}

// Series is one severity time series.
type Series struct {
	Metric       string    `json:"metric"`
	Name         string    `json:"name,omitempty"`
	Unit         string    `json:"unit,omitempty"`
	Metahost     int       `json:"metahost"`
	MetahostName string    `json:"metahost_name,omitempty"`
	Rank         int       `json:"rank"`
	Count        int64     `json:"count"`
	Values       []float64 `json:"values"`
}

// Empty reports whether the profile carries no series at all.
func (p *Profile) Empty() bool { return p == nil || len(p.Series) == 0 }

// Metrics returns the distinct metric keys in series order.
func (p *Profile) Metrics() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range p.Series {
		if !seen[s.Metric] {
			seen[s.Metric] = true
			out = append(out, s.Metric)
		}
	}
	return out
}

// SeriesTotal sums the bucket values of every series carrying the
// given metric at the given rank (rank < 0 matches every rank). The
// accumulator keeps every sample's whole value on its axis, so this
// total equals the sum of the severities fed into the profile — the
// property the conformance oracle cross-checks against the cube.
func (p *Profile) SeriesTotal(metric string, rank int) float64 {
	total := 0.0
	for _, s := range p.Series {
		if s.Metric != metric || (rank >= 0 && s.Rank != rank) {
			continue
		}
		for _, v := range s.Values {
			total += v
		}
	}
	return total
}

// MetahostRows aggregates one metric's series by metahost (summing
// ranks), returning rows ordered by metahost id. Used by the HTML
// heatmap and the timeline counter tracks.
type MetahostRow struct {
	Metahost int
	Name     string
	Values   []float64
}

// ByMetahost aggregates the series of one metric across ranks.
func (p *Profile) ByMetahost(metric string) []MetahostRow {
	byID := make(map[int]*MetahostRow)
	for _, s := range p.Series {
		if s.Metric != metric {
			continue
		}
		row, ok := byID[s.Metahost]
		if !ok {
			row = &MetahostRow{Metahost: s.Metahost, Name: s.MetahostName}
			byID[s.Metahost] = row
		}
		if row.Name == "" {
			row.Name = s.MetahostName
		}
		// A row is as long as the longest series it sums, not the declared
		// bucket count.
		vals := s.Values[:min(len(s.Values), p.Buckets)]
		if len(vals) > len(row.Values) {
			row.Values = append(row.Values, make([]float64, len(vals)-len(row.Values))...)
		}
		for i, v := range vals {
			row.Values[i] += v
		}
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]MetahostRow, 0, len(ids))
	for _, id := range ids {
		out = append(out, *byID[id])
	}
	return out
}

// WriteJSON writes the profile as compact JSON. Series order is fixed
// by Snapshot and floats print canonically, so equal profiles serialize
// byte-identically. The bytes are those json.Marshal(p) plus a newline
// would produce (the struct tags above are the contract and Read decodes
// with encoding/json), appended field by field: at 64 buckets times a
// few hundred series the reflective encoder costs more than the
// analysis' fold. A NaN or infinite value is an
// *json.UnsupportedValueError, and nothing is written.
func (p *Profile) WriteJSON(w io.Writer) error {
	for _, f := range []float64{p.Origin, p.BucketWidth} {
		if err := jsonw.Unsupported(f); err != nil {
			return err
		}
	}
	for i := range p.Series {
		for _, v := range p.Series[i].Values {
			if err := jsonw.Unsupported(v); err != nil {
				return err
			}
		}
	}
	j := jsonw.New(w)
	j.Open('{')
	if p.Title != "" {
		j.Key("title")
		j.String(p.Title)
	}
	j.Key("origin")
	j.Float(p.Origin)
	j.Key("bucket_width")
	j.Float(p.BucketWidth)
	j.Key("buckets")
	j.Int(int64(p.Buckets))
	j.Key("series")
	if p.Series == nil {
		j.Null()
	} else {
		j.Open('[')
		for i := range p.Series {
			j.Elem()
			p.Series[i].writeJSON(j)
		}
		j.Close(']')
	}
	j.Close('}')
	return j.End()
}

func (s *Series) writeJSON(j *jsonw.Writer) {
	j.Open('{')
	j.Key("metric")
	j.String(s.Metric)
	if s.Name != "" {
		j.Key("name")
		j.String(s.Name)
	}
	if s.Unit != "" {
		j.Key("unit")
		j.String(s.Unit)
	}
	j.Key("metahost")
	j.Int(int64(s.Metahost))
	if s.MetahostName != "" {
		j.Key("metahost_name")
		j.String(s.MetahostName)
	}
	j.Key("rank")
	j.Int(int64(s.Rank))
	j.Key("count")
	j.Int(s.Count)
	j.Key("values")
	if s.Values == nil {
		j.Null()
	} else {
		j.Open('[')
		for _, v := range s.Values {
			j.Elem()
			j.Float(v)
		}
		j.Close(']')
	}
	j.Close('}')
}

// WriteCSV writes the profile in wide CSV form: one row per series
// with metric, location, count, and every bucket value. The first two
// lines carry the time axis so the file is self-describing.
func (p *Profile) WriteCSV(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# origin_seconds=%s bucket_width_seconds=%s buckets=%d\n",
		strconv.FormatFloat(p.Origin, 'g', -1, 64),
		strconv.FormatFloat(p.BucketWidth, 'g', -1, 64), p.Buckets)
	b.WriteString("metric,metahost,metahost_name,rank,count")
	for i := 0; i < p.Buckets; i++ {
		fmt.Fprintf(&b, ",b%d", i)
	}
	b.WriteByte('\n')
	for _, s := range p.Series {
		fmt.Fprintf(&b, "%s,%d,%s,%d,%d", s.Metric, s.Metahost, csvEscape(s.MetahostName), s.Rank, s.Count)
		for i := 0; i < p.Buckets; i++ {
			v := 0.0
			if i < len(s.Values) {
				v = s.Values[i]
			}
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Read decodes a JSON profile artifact and validates its shape.
func Read(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decoding artifact: %w", err)
	}
	if p.Buckets < 0 || p.Buckets > MaxBuckets || p.BucketWidth < 0 {
		return nil, fmt.Errorf("profile: invalid artifact: buckets=%d (limit %d) width=%g", p.Buckets, MaxBuckets, p.BucketWidth)
	}
	for i, s := range p.Series {
		if len(s.Values) > p.Buckets {
			return nil, fmt.Errorf("profile: series %d (%s) has %d values for %d buckets", i, s.Metric, len(s.Values), p.Buckets)
		}
	}
	return &p, nil
}

// Diff compares two profiles interval by interval and returns a − b as
// a new profile. The two must share one time axis — bucket count,
// origin and width — which two analyses of one archive under one
// scheme and one bucket count do; anything else is refused, since no
// interval of one profile then matches an interval of the other. Series
// present on only one side diff against zero.
func Diff(a, b *Profile) (*Profile, error) {
	if a.Buckets != b.Buckets || a.Origin != b.Origin || a.BucketWidth != b.BucketWidth {
		return nil, fmt.Errorf("profile: time axes differ (%d buckets of %gs from %gs vs %d buckets of %gs from %gs)",
			a.Buckets, a.BucketWidth, a.Origin, b.Buckets, b.BucketWidth, b.Origin)
	}
	out := &Profile{
		Title:       fmt.Sprintf("%s − %s", a.Title, b.Title),
		Origin:      a.Origin,
		BucketWidth: a.BucketWidth,
		Buckets:     a.Buckets,
	}
	bySeries := make(map[Key][2]*Series)
	var keys []Key
	index := func(p *Profile, which int) {
		for i := range p.Series {
			s := &p.Series[i]
			k := Key{Metric: s.Metric, Metahost: s.Metahost, Rank: s.Rank}
			pair, ok := bySeries[k]
			if !ok {
				keys = append(keys, k)
			}
			pair[which] = s
			bySeries[k] = pair
		}
	}
	index(a, 0)
	index(b, 1)
	slices.SortFunc(keys, compareKeys)
	for _, k := range keys {
		pair := bySeries[k]
		row := Series{Metric: k.Metric, Metahost: k.Metahost, Rank: k.Rank}
		// A row is as long as the longer of its inputs, not the declared
		// bucket count: a missing value is zero, and a series line of a few
		// bytes does not size a row of MaxBuckets.
		n := 0
		for _, s := range pair {
			if s != nil {
				n = max(n, len(s.Values))
			}
		}
		vals := make([]float64, n)
		for which, sign := range []float64{1, -1} {
			s := pair[which]
			if s == nil {
				continue
			}
			if row.Name == "" {
				row.Name, row.Unit, row.MetahostName = s.Name, s.Unit, s.MetahostName
			}
			for i, v := range s.Values {
				vals[i] += sign * v
			}
			row.Count += int64(sign) * s.Count
		}
		row.Values = vals
		out.Series = append(out.Series, row)
	}
	return out, nil
}
