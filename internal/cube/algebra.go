package cube

import (
	"fmt"
)

// This file implements the cross-experiment algebra of Song, Wolf,
// Bhatia, Dongarra, Moore ("An algebra for cross-experiment
// performance analysis", ICPP 2004), which §6 names as the natural
// companion of the metacomputing analyzer: comparing the heterogeneous
// three-metahost experiment against the homogeneous one-metahost run.
//
// All operations first bring the operands onto a common structure (the
// union of metric keys, call paths, and location ranks) and then
// combine cell-wise. Locations are matched by rank: cross-experiment
// comparisons assume equal process counts, as in Table 3.

// align builds a result report whose dimensions are the union of the
// operands' and returns per-operand index mappings via lookup closures.
func align(title string, a, b *Report) (*Report, func(r *Report, m, c, l int) (int, int, int, bool)) {
	// Metrics: a's order first, then b's additions.
	metrics := append([]Metric(nil), a.Metrics...)
	haveMetric := map[string]int{}
	for i, m := range metrics {
		haveMetric[m.Key] = i
	}
	for _, m := range b.Metrics {
		if _, ok := haveMetric[m.Key]; !ok {
			parent := -1
			if m.Parent >= 0 {
				parent = haveMetric[b.Metrics[m.Parent].Key]
			}
			haveMetric[m.Key] = len(metrics)
			metrics = append(metrics, Metric{Key: m.Key, Name: m.Name, Unit: m.Unit, Desc: m.Desc, Parent: parent})
		}
	}
	// Locations: union by rank.
	locs := append([]Loc(nil), a.Locs...)
	haveLoc := map[int]int{}
	for i, l := range locs {
		haveLoc[l.Rank] = i
	}
	for _, l := range b.Locs {
		if _, ok := haveLoc[l.Rank]; !ok {
			haveLoc[l.Rank] = len(locs)
			locs = append(locs, l)
		}
	}
	out := New(title, metrics, locs)
	// Calls: union by path.
	addCalls := func(src *Report) {
		for c := range src.Calls {
			path := src.CallPath(c)
			cur := -1
			for _, name := range path {
				cur = out.Child(cur, name)
			}
		}
	}
	addCalls(a)
	addCalls(b)

	lookup := func(src *Report, m, c, l int) (int, int, int, bool) {
		mi, ok := haveMetric[src.Metrics[m].Key]
		if !ok {
			return 0, 0, 0, false
		}
		ci := out.CallByPath(src.CallPath(c))
		if ci < 0 {
			return 0, 0, 0, false
		}
		li, ok := haveLoc[src.Locs[l].Rank]
		if !ok {
			return 0, 0, 0, false
		}
		return mi, ci, li, true
	}
	return out, lookup
}

// forEachCell visits every non-zero severity cell of a report, in
// (metric, call, location) order.
func forEachCell(r *Report, fn func(m, c, l int, v float64)) {
	for m, rows := range r.sev {
		for _, row := range rows {
			for l, v := range row.cells {
				if v != 0 {
					fn(m, row.call, l, v)
				}
			}
		}
	}
}

// Diff returns a − b cell-wise on the union structure. Positive cells
// mark severities larger in a; negative ones severities larger in b.
func Diff(a, b *Report) *Report {
	out, lookup := align(fmt.Sprintf("diff(%s, %s)", a.Title, b.Title), a, b)
	forEachCell(a, func(m, c, l int, v float64) {
		if mi, ci, li, ok := lookup(a, m, c, l); ok {
			out.Add(mi, ci, li, v)
		}
	})
	forEachCell(b, func(m, c, l int, v float64) {
		if mi, ci, li, ok := lookup(b, m, c, l); ok {
			out.Add(mi, ci, li, -v)
		}
	})
	return out
}

// Merge returns a + b cell-wise on the union structure, combining
// disjoint or repeated experiments into one view.
func Merge(a, b *Report) *Report {
	out, lookup := align(fmt.Sprintf("merge(%s, %s)", a.Title, b.Title), a, b)
	forEachCell(a, func(m, c, l int, v float64) {
		if mi, ci, li, ok := lookup(a, m, c, l); ok {
			out.Add(mi, ci, li, v)
		}
	})
	forEachCell(b, func(m, c, l int, v float64) {
		if mi, ci, li, ok := lookup(b, m, c, l); ok {
			out.Add(mi, ci, li, v)
		}
	})
	return out
}

// Mean returns the cell-wise arithmetic mean of several reports,
// smoothing run-to-run variation across repeated experiments.
func Mean(reports ...*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("cube: Mean of no reports")
	}
	acc := reports[0]
	for _, r := range reports[1:] {
		acc = Merge(acc, r)
	}
	out, lookup := align(fmt.Sprintf("mean(%d experiments)", len(reports)), acc, acc)
	n := float64(len(reports))
	forEachCell(acc, func(m, c, l int, v float64) {
		if mi, ci, li, ok := lookup(acc, m, c, l); ok {
			out.Set(mi, ci, li, v/n)
		}
	})
	out.Title = fmt.Sprintf("mean(%d experiments)", len(reports))
	return out, nil
}
