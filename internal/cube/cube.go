// Package cube holds analysis reports: the three-dimensional severity
// mapping metric × call path × system location produced by the trace
// analyzer, modelled after the CUBE format of KOJAK/SCALASCA.
//
// The three dimensions correspond to the three panels of the result
// browser in Figures 6 and 7: the metric hierarchy on the left, the
// call tree in the middle, and the system tree — metahost, node,
// process — on the right. Severities are stored exclusively along both
// the metric and the call axis; inclusive values are obtained by
// aggregating subtrees.
//
// The package also implements the cross-experiment algebra of Song et
// al. (difference, merge, mean), named as future work in §6.
package cube

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"metascope/internal/pattern"
	"metascope/internal/profile"
)

// Metric is one node of the metric dimension.
type Metric struct {
	Key    string // stable identifier, e.g. "mpi.communication.p2p.late_sender"
	Name   string // display name, e.g. "Late Sender"
	Unit   string // "sec" or "occ"
	Desc   string
	Parent int // index into Report.Metrics, -1 for roots
}

// CallNode is one node of the call-tree dimension.
type CallNode struct {
	Name   string
	Parent int // -1 for roots
}

// Loc is one leaf of the system dimension: a process, placed on a node
// of a metahost.
type Loc struct {
	Rank         int
	Metahost     int
	MetahostName string
	Node         int
}

// Report is a complete analysis result.
type Report struct {
	Title   string
	Metrics []Metric
	Calls   []CallNode
	Locs    []Loc
	// Profile is the optional time-resolved severity profile attached by
	// the replay analysis. It renders as the heatmap section of the HTML
	// report but is not part of the binary cube format: it travels as its
	// own artifact (see internal/profile) and can be re-attached to a
	// loaded report before rendering.
	Profile *profile.Profile
	// sev[m] holds metric m's rows in call-node order: one per call node
	// the metric was ever written at, made on its first write, sized to
	// the locations then known. Row cells[l] is the exclusive severity at
	// location l; a row not yet written, or a location past a row's end,
	// reads as zero. Storage follows what was written, not metrics ×
	// calls × locations.
	sev [][]sevRow
	// slab is the unused tail of the block row cells are cut from, and
	// rows the number of rows cut so far: a block holds as many rows as
	// were cut before it, at least 8 and at most slabBytes of them, so a
	// report of many rows makes few allocations and one of few wastes
	// little.
	slab []float64
	rows int
}

// sevRow is one (metric, call node) row of exclusive severities.
type sevRow struct {
	call  int
	cells []float64
}

// slabBytes caps one block of rows; a row longer than that is a block
// of its own.
const slabBytes = 32 << 10

// New creates a report with the given metric dimension and locations.
// Call nodes are added incrementally with AddCall.
func New(title string, metrics []Metric, locs []Loc) *Report {
	return &Report{Title: title, Metrics: metrics, Locs: locs}
}

// FromMetricDefs flattens a metric-definition tree (pattern.MetricTree)
// into the report's metric dimension, parents before children.
func FromMetricDefs(defs []pattern.MetricDef) []Metric {
	var out []Metric
	var walk func(d pattern.MetricDef, parent int)
	walk = func(d pattern.MetricDef, parent int) {
		idx := len(out)
		out = append(out, Metric{Key: d.Key, Name: d.Name, Unit: d.Unit, Desc: d.Desc, Parent: parent})
		for _, ch := range d.Children {
			walk(ch, idx)
		}
	}
	for _, d := range defs {
		walk(d, -1)
	}
	return out
}

// MetricIndex returns the index of the metric with the given key, or
// -1 if absent.
func (r *Report) MetricIndex(key string) int {
	for i := range r.Metrics {
		if r.Metrics[i].Key == key {
			return i
		}
	}
	return -1
}

// AddMetric appends a metric node (parent must already exist) and
// returns its index. The analyzer uses it for dynamically discovered
// metrics such as the per-metahost-pair grid specializations.
func (r *Report) AddMetric(m Metric) int {
	if m.Parent >= len(r.Metrics) || m.Parent < -1 {
		panic(fmt.Sprintf("cube: AddMetric with invalid parent %d", m.Parent))
	}
	r.Metrics = append(r.Metrics, m)
	return len(r.Metrics) - 1
}

// LocIndex returns the index of the location with the given rank, or -1.
func (r *Report) LocIndex(rank int) int {
	for i := range r.Locs {
		if r.Locs[i].Rank == rank {
			return i
		}
	}
	return -1
}

// AddCall appends a call node under parent (-1 for a root) and returns
// its index. It does not deduplicate; use Child for lookup-or-create.
func (r *Report) AddCall(name string, parent int) int {
	r.Calls = append(r.Calls, CallNode{Name: name, Parent: parent})
	return len(r.Calls) - 1
}

// Child returns the index of parent's child with the given name,
// creating it if needed.
func (r *Report) Child(parent int, name string) int {
	for i := range r.Calls {
		if r.Calls[i].Parent == parent && r.Calls[i].Name == name {
			return i
		}
	}
	return r.AddCall(name, parent)
}

// CallPath returns the full path of a call node, root first.
func (r *Report) CallPath(c int) []string {
	var rev []string
	for c >= 0 {
		rev = append(rev, r.Calls[c].Name)
		c = r.Calls[c].Parent
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// CallByPath resolves a path of names to a call-node index, or -1.
func (r *Report) CallByPath(path []string) int {
	cur := -1
	for _, name := range path {
		found := -1
		for i := range r.Calls {
			if r.Calls[i].Parent == cur && r.Calls[i].Name == name {
				found = i
				break
			}
		}
		if found < 0 {
			return -1
		}
		cur = found
	}
	return cur
}

// rowsOf returns metric m's written rows, in call order.
func (r *Report) rowsOf(m int) []sevRow {
	if m < len(r.sev) {
		return r.sev[m]
	}
	return nil
}

// row returns the index among metric's rows of the row of call, or where
// it would go.
func (r *Report) row(metric, call int) (int, bool) {
	rows := r.rowsOf(metric)
	// Rows are most often written in the order their call nodes were made.
	if n := len(rows); n == 0 || rows[n-1].call < call {
		return n, false
	} else if rows[n-1].call == call {
		return n - 1, true
	}
	return slices.BinarySearchFunc(rows, call, func(x sevRow, c int) int { return cmp.Compare(x.call, c) })
}

// cell returns the storage of (metric, call, loc), making its row first,
// or lengthening it for a location added after the row was made.
func (r *Report) cell(metric, call, loc int) *float64 {
	if metric >= len(r.sev) {
		r.sev = append(r.sev, make([][]sevRow, len(r.Metrics)-len(r.sev))...)
	}
	if call < 0 || call >= len(r.Calls) {
		panic(fmt.Sprintf("cube: call node %d out of range [0, %d)", call, len(r.Calls)))
	}
	i, ok := r.row(metric, call)
	if !ok {
		r.sev[metric] = slices.Insert(r.sev[metric], i, sevRow{call: call})
	}
	row := &r.sev[metric][i]
	switch {
	case row.cells == nil:
		row.cells = r.newCells()
	case loc >= len(row.cells):
		row.cells = append(row.cells, make([]float64, len(r.Locs)-len(row.cells))...)
	}
	return &row.cells[loc]
}

// newCells cuts a row of len(r.Locs) zero cells from the slab.
func (r *Report) newCells() []float64 {
	n := len(r.Locs)
	if len(r.slab) < n {
		k := min(max(r.rows, 8), max(slabBytes/8/max(n, 1), 1))
		r.slab = make([]float64, k*n)
	}
	cells := r.slab[:n:n]
	r.slab = r.slab[n:]
	r.rows++
	return cells
}

// Add accumulates an exclusive severity value.
func (r *Report) Add(metric, call, loc int, v float64) {
	*r.cell(metric, call, loc) += v
}

// Set stores an exclusive severity value.
func (r *Report) Set(metric, call, loc int, v float64) {
	*r.cell(metric, call, loc) = v
}

// cells returns the row of (metric, call), nil if never written.
func (r *Report) cells(metric, call int) []float64 {
	if i, ok := r.row(metric, call); ok {
		return r.sev[metric][i].cells
	}
	return nil
}

// Value returns the exclusive severity of (metric, call, loc).
func (r *Report) Value(metric, call, loc int) float64 {
	if cells := r.cells(metric, call); loc < len(cells) {
		return cells[loc]
	}
	return 0
}

// MetricChildren returns the indices of a metric's direct children.
func (r *Report) MetricChildren(m int) []int {
	var out []int
	for i := range r.Metrics {
		if r.Metrics[i].Parent == m {
			out = append(out, i)
		}
	}
	return out
}

// CallChildren returns the indices of a call node's direct children
// (parent -1 lists the roots).
func (r *Report) CallChildren(c int) []int {
	var out []int
	for i := range r.Calls {
		if r.Calls[i].Parent == c {
			out = append(out, i)
		}
	}
	return out
}

// eachMetric calls fn for m and every metric below it, in preorder: m,
// then each child's subtree in index order. The tree queries below sum
// in this order, metric by metric, each by call and then by location, so
// their floating-point totals do not depend on how the walk is made.
func (r *Report) eachMetric(m int, fn func(mm int)) {
	fn(m)
	for ch := range r.Metrics {
		if r.Metrics[ch].Parent == m {
			r.eachMetric(ch, fn)
		}
	}
}

// eachCall calls fn for c and every call node below it, in preorder.
func (r *Report) eachCall(c int, fn func(cc int)) {
	fn(c)
	for ch := range r.Calls {
		if r.Calls[ch].Parent == c {
			r.eachCall(ch, fn)
		}
	}
}

// MetricCallValue sums metric m's subtree over one call node (all
// locations) — the number shown next to a call-tree entry when metric
// m is selected.
func (r *Report) MetricCallValue(m, call int) float64 {
	total := 0.0
	r.eachMetric(m, func(mm int) {
		for _, v := range r.cells(mm, call) {
			total += v
		}
	})
	return total
}

// MetricCallInclusive additionally sums over the call subtree.
func (r *Report) MetricCallInclusive(m, call int) float64 {
	total := 0.0
	r.eachCall(call, func(c int) { total += r.MetricCallValue(m, c) })
	return total
}

// MetricLocValue sums metric m's subtree at one (call, loc), including
// the call subtree — the number shown in the system panel.
func (r *Report) MetricLocValue(m, call, loc int) float64 {
	total := 0.0
	r.eachCall(call, func(c int) {
		r.eachMetric(m, func(mm int) { total += r.Value(mm, c, loc) })
	})
	return total
}

// RankMetricTotal sums the subtree of the metric with the given key
// over every call node at the location of the given rank — the
// per-process severity of a whole pattern family, dynamically created
// per-pair grid children included. Absent metrics or ranks yield 0.
// The conformance oracle (internal/conformance) compares this against
// closed-form expectations.
func (r *Report) RankMetricTotal(key string, rank int) float64 {
	m := r.MetricIndex(key)
	l := r.LocIndex(rank)
	if m < 0 || l < 0 {
		return 0
	}
	total := 0.0
	r.eachMetric(m, func(mm int) {
		for _, row := range r.rowsOf(mm) {
			if l < len(row.cells) {
				total += row.cells[l]
			}
		}
	})
	return total
}

// MetricTotal sums metric m's subtree over everything.
func (r *Report) MetricTotal(m int) float64 {
	total := 0.0
	r.eachMetric(m, func(mm int) {
		for _, row := range r.rowsOf(mm) {
			for _, v := range row.cells {
				total += v
			}
		}
	})
	return total
}

// TotalTime returns the inclusive total of the "time" metric — the
// denominator of the percentages in Figures 6 and 7.
func (r *Report) TotalTime() float64 {
	m := r.MetricIndex(pattern.KeyTime)
	if m < 0 {
		return 0
	}
	return r.MetricTotal(m)
}

// MetricPercent returns metric m's inclusive share of total time.
func (r *Report) MetricPercent(m int) float64 {
	return r.percentOf(m, r.TotalTime())
}

// percentOf returns metric m's inclusive share of the given total time.
func (r *Report) percentOf(m int, t float64) float64 {
	if t <= 0 {
		return 0
	}
	return 100 * r.MetricTotal(m) / t
}

// HottestCall returns the call node with the largest inclusive value
// of metric m, and that value. Leaf-ward nodes win ties by being more
// specific; returns (-1, 0) for an empty report.
func (r *Report) HottestCall(m int) (int, float64) {
	best, bestV := -1, 0.0
	for c := range r.Calls {
		v := r.MetricCallValue(m, c)
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best, bestV
}

// MetahostNames returns the distinct metahost names in location order.
func (r *Report) MetahostNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range r.Locs {
		if !seen[l.MetahostName] {
			seen[l.MetahostName] = true
			out = append(out, l.MetahostName)
		}
	}
	return out
}

// MetahostValue sums metric m (inclusive, call subtree of call) over
// every process of one metahost.
func (r *Report) MetahostValue(m, call int, metahostName string) float64 {
	total := 0.0
	for l, loc := range r.Locs {
		if loc.MetahostName == metahostName {
			total += r.MetricLocValue(m, call, l)
		}
	}
	return total
}

// Validate checks structural consistency: parent links in range and
// acyclic, unique metric keys, unique location ranks.
func (r *Report) Validate() error {
	keys := map[string]bool{}
	for i, m := range r.Metrics {
		if m.Parent >= i {
			return fmt.Errorf("cube: metric %d (%s) has forward or self parent %d", i, m.Key, m.Parent)
		}
		if m.Parent < -1 {
			return fmt.Errorf("cube: metric %d (%s) has invalid parent %d", i, m.Key, m.Parent)
		}
		if keys[m.Key] {
			return fmt.Errorf("cube: duplicate metric key %q", m.Key)
		}
		keys[m.Key] = true
	}
	for i, c := range r.Calls {
		if c.Parent >= i || c.Parent < -1 {
			return fmt.Errorf("cube: call node %d (%s) has invalid parent %d", i, c.Name, c.Parent)
		}
	}
	ranks := map[int]bool{}
	for _, l := range r.Locs {
		if ranks[l.Rank] {
			return fmt.Errorf("cube: duplicate location rank %d", l.Rank)
		}
		ranks[l.Rank] = true
	}
	return nil
}

// SortedMetricKeys returns all metric keys, sorted (for stable output).
func (r *Report) SortedMetricKeys() []string {
	out := make([]string, len(r.Metrics))
	for i, m := range r.Metrics {
		out[i] = m.Key
	}
	sort.Strings(out)
	return out
}

// PathString joins a call path for display.
func PathString(path []string) string { return strings.Join(path, " / ") }
