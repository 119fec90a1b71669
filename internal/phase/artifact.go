package phase

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"metascope/internal/jsonw"
)

// FamilyOf folds a profile metric key to its pattern family: the grid
// and wrong-order specializations are children of their base pattern
// in the metric tree, and per-phase severities are reported at family
// granularity (matching the streaming sink's contract).
func FamilyOf(metric string) string {
	metric = strings.TrimSuffix(metric, ".grid")
	return strings.TrimSuffix(metric, ".wrong_order")
}

// SevRow is one (family, metahost) severity cell of one phase.
type SevRow struct {
	Family       string  `json:"family"`
	Metahost     int     `json:"metahost"`
	MetahostName string  `json:"metahost_name,omitempty"`
	Severity     float64 `json:"severity"`
}

// PhaseRow is one detected phase of the artifact.
type PhaseRow struct {
	Index int     `json:"index"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Sig is the phase's multiset signature (hex): equal iff the
	// phases ran the same multiset of region instances over the same
	// rank count.
	Sig string `json:"sig"`
	// Kinds is the rank-count-agnostic structural signature (hex):
	// equal iff the phases ran the same set of region names. Cross-
	// archive alignment with changed rank counts matches on it.
	Kinds string   `json:"kinds"`
	Ops   int      `json:"ops"`
	Rows  []SevRow `json:"rows,omitempty"`
}

// Profile is the deterministic per-phase severity artifact — the
// phase-resolved counterpart of profile.Profile, written by metascope analyze
// -phases-out and compared by metascope diff -phases.
type Profile struct {
	Title  string `json:"title,omitempty"`
	Ranks  int    `json:"ranks"`
	Period int    `json:"period"`
	Pre    int    `json:"pre,omitempty"`
	Post   int    `json:"post,omitempty"`
	// Phases lists every detected phase in time order, each with its
	// per-(family, metahost) severities sorted by (family, metahost).
	Phases []PhaseRow `json:"phases"`
}

// SeverityAt returns the severity of (family, metahost) in phase i, or
// 0 when absent.
func (p *Profile) SeverityAt(i int, family string, metahost int) float64 {
	if i < 0 || i >= len(p.Phases) {
		return 0
	}
	for _, r := range p.Phases[i].Rows {
		if r.Family == family && r.Metahost == metahost {
			return r.Severity
		}
	}
	return 0
}

// FamilyTotal sums one family's severity over every phase and
// metahost — the global number the per-phase rows refine.
func (p *Profile) FamilyTotal(family string) float64 {
	total := 0.0
	for _, ph := range p.Phases {
		for _, r := range ph.Rows {
			if r.Family == family {
				total += r.Severity
			}
		}
	}
	return total
}

// appendSig appends a signature in the artifact's fixed-width hex, as
// fmt's %016x prints it.
func appendSig(b []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[v>>shift&15])
	}
	return b
}

// rowKey addresses one accumulator row.
type rowKey struct {
	family   string
	metahost int
}

// Row is the handle of one (family, metahost) severity row: a dense cell
// per phase, plus which cells have been deposited into — a cell exists in
// the artifact once touched, whatever its sum.
type Row struct {
	acc     *Accumulator
	key     rowKey
	sums    []float64
	touched []bool
}

// Accumulator folds severity deposits into per-(phase, family,
// metahost) cells. It must be fed sequentially in a deterministic
// order: each cell's floating-point sum is the deposits in call order,
// which is what keeps the artifact byte-identical across analysis
// modes (the replay folds rank-major over per-rank deferred logs).
type Accumulator struct {
	seg   *Segmentation
	ranks int
	rows  map[rowKey]*Row
	names map[int]string
	// cur is the phase of the last deposit. Deposits arrive in a rank's
	// time order, so the next one is most often in the same phase or the
	// one after it and needs no search.
	cur int
}

// NewAccumulator prepares an accumulator over the detected
// segmentation for a run with the given rank count.
func NewAccumulator(seg *Segmentation, ranks int) *Accumulator {
	return &Accumulator{
		seg:   seg,
		ranks: ranks,
		rows:  make(map[rowKey]*Row, 16),
		names: make(map[int]string, 4),
	}
}

// SetMetahostName registers a metahost's display name.
func (a *Accumulator) SetMetahostName(mh int, name string) { a.names[mh] = name }

// Row returns the handle of the row a metric's deposits on one metahost
// go to — the metric folded to its family — creating it on first use. A
// caller that deposits many samples of one (metric, metahost) resolves
// the row once.
func (a *Accumulator) Row(metric string, metahost int) *Row {
	k := rowKey{family: FamilyOf(metric), metahost: metahost}
	r := a.rows[k]
	if r == nil {
		n := a.seg.Phases()
		r = &Row{acc: a, key: k, sums: make([]float64, n), touched: make([]bool, n)}
		a.rows[k] = r
	}
	return r
}

// Add deposits one severity (or volume) sample: the whole value is
// attributed to the phase containing its start time.
func (r *Row) Add(start, val float64) {
	if val == 0 {
		return
	}
	a := r.acc
	// Strictly inside the current phase, or the next one, IndexOf has one
	// answer however the bounds repeat; on an edge or elsewhere, ask it.
	if b := a.seg.Bounds; !(b[a.cur] < start && start < b[a.cur+1]) {
		if c := a.cur + 1; c+1 < len(b) && b[c] < start && start < b[c+1] {
			a.cur = c
		} else {
			a.cur = a.seg.IndexOf(start)
		}
	}
	r.sums[a.cur] += val
	r.touched[a.cur] = true
}

// Add deposits one sample into the row of (metric's family, metahost).
func (a *Accumulator) Add(metric string, metahost int, start, val float64) {
	a.Row(metric, metahost).Add(start, val)
}

// Snapshot renders the accumulated cells as the artifact, rows sorted
// by (phase, family, metahost).
func (a *Accumulator) Snapshot(title string) *Profile {
	rows := make([]*Row, 0, len(a.rows))
	for _, r := range a.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].key.family != rows[j].key.family {
			return rows[i].key.family < rows[j].key.family
		}
		return rows[i].key.metahost < rows[j].key.metahost
	})
	p := &Profile{
		Title:  title,
		Ranks:  a.ranks,
		Period: a.seg.Period,
		Pre:    a.seg.Pre,
		Post:   a.seg.Post,
		Phases: make([]PhaseRow, a.seg.Phases()),
	}
	cells := 0
	for _, r := range rows {
		for _, t := range r.touched {
			if t {
				cells++
			}
		}
	}
	// One backing array for every phase's rows, cut phase by phase, and
	// one string holding every phase's two signatures, cut the same way.
	sev := make([]SevRow, 0, cells)
	var hex strings.Builder
	hex.Grow(32 * len(p.Phases))
	var sig [16]byte
	for i := range p.Phases {
		hex.Write(appendSig(sig[:0], a.seg.Sigs[i]))
		hex.Write(appendSig(sig[:0], a.seg.Kinds[i]))
	}
	sigs := hex.String()
	for i := range p.Phases {
		first := len(sev)
		for _, r := range rows {
			if r.touched[i] {
				sev = append(sev, SevRow{
					Family:       r.key.family,
					Metahost:     r.key.metahost,
					MetahostName: a.names[r.key.metahost],
					Severity:     r.sums[i],
				})
			}
		}
		p.Phases[i] = PhaseRow{
			Index: i,
			Start: a.seg.Bounds[i],
			End:   a.seg.Bounds[i+1],
			Sig:   sigs[32*i : 32*i+16],
			Kinds: sigs[32*i+16 : 32*i+32],
			Ops:   a.seg.Counts[i],
		}
		if len(sev) > first {
			p.Phases[i].Rows = sev[first:len(sev):len(sev)]
		}
	}
	return p
}

// WriteJSON writes the artifact as indented JSON. Row order is fixed
// by Snapshot and floats print canonically, so equal profiles serialize
// byte-identically. The bytes are those json.MarshalIndent(p, "", "  ")
// plus a newline would produce (the struct tags above are the contract
// and Read decodes with encoding/json), appended field by field. A NaN
// or infinite value is an *json.UnsupportedValueError, and nothing is
// written.
func (p *Profile) WriteJSON(w io.Writer) error {
	for i := range p.Phases {
		ph := &p.Phases[i]
		for _, f := range []float64{ph.Start, ph.End} {
			if err := jsonw.Unsupported(f); err != nil {
				return err
			}
		}
		for _, r := range ph.Rows {
			if err := jsonw.Unsupported(r.Severity); err != nil {
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
	j.Key("ranks")
	j.Int(int64(p.Ranks))
	j.Key("period")
	j.Int(int64(p.Period))
	if p.Pre != 0 {
		j.Key("pre")
		j.Int(int64(p.Pre))
	}
	if p.Post != 0 {
		j.Key("post")
		j.Int(int64(p.Post))
	}
	j.Key("phases")
	if p.Phases == nil {
		j.Null()
	} else {
		j.Open('[')
		for i := range p.Phases {
			j.Elem()
			p.Phases[i].writeJSON(j)
		}
		j.Close(']')
	}
	j.Close('}')
	return j.End()
}

func (ph *PhaseRow) writeJSON(j *jsonw.Writer) {
	j.Open('{')
	j.Key("index")
	j.Int(int64(ph.Index))
	j.Key("start")
	j.Float(ph.Start)
	j.Key("end")
	j.Float(ph.End)
	j.Key("sig")
	j.String(ph.Sig)
	j.Key("kinds")
	j.String(ph.Kinds)
	j.Key("ops")
	j.Int(int64(ph.Ops))
	if len(ph.Rows) != 0 {
		j.Key("rows")
		j.Open('[')
		for _, r := range ph.Rows {
			j.Elem()
			j.Open('{')
			j.Key("family")
			j.String(r.Family)
			j.Key("metahost")
			j.Int(int64(r.Metahost))
			if r.MetahostName != "" {
				j.Key("metahost_name")
				j.String(r.MetahostName)
			}
			j.Key("severity")
			j.Float(r.Severity)
			j.Close('}')
		}
		j.Close(']')
	}
	j.Close('}')
}

// WriteCSV writes the artifact in long CSV form: one line per
// severity cell, phases without cells keeping one line so the phase
// structure survives the export.
func (p *Profile) WriteCSV(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# ranks=%d period=%d pre=%d post=%d phases=%d\n",
		p.Ranks, p.Period, p.Pre, p.Post, len(p.Phases))
	b.WriteString("phase,start,end,sig,kinds,ops,family,metahost,metahost_name,severity\n")
	for _, ph := range p.Phases {
		prefix := fmt.Sprintf("%d,%s,%s,%s,%s,%d", ph.Index,
			strconv.FormatFloat(ph.Start, 'g', -1, 64),
			strconv.FormatFloat(ph.End, 'g', -1, 64), ph.Sig, ph.Kinds, ph.Ops)
		if len(ph.Rows) == 0 {
			fmt.Fprintf(&b, "%s,,,,\n", prefix)
			continue
		}
		for _, r := range ph.Rows {
			fmt.Fprintf(&b, "%s,%s,%d,%s,%s\n", prefix, r.Family, r.Metahost,
				csvEscape(r.MetahostName), strconv.FormatFloat(r.Severity, 'g', -1, 64))
		}
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

// Read decodes a JSON phase artifact and validates its shape.
func Read(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("phase: decoding artifact: %w", err)
	}
	if p.Period < 1 {
		return nil, fmt.Errorf("phase: invalid artifact: period %d", p.Period)
	}
	for i, ph := range p.Phases {
		if ph.Index != i {
			return nil, fmt.Errorf("phase: invalid artifact: phase %d carries index %d", i, ph.Index)
		}
		if ph.End < ph.Start {
			return nil, fmt.Errorf("phase: invalid artifact: phase %d spans [%g, %g)", i, ph.Start, ph.End)
		}
	}
	return &p, nil
}
