package cube

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file renders reports as text, reproducing the information
// content of the result browser's three panels (Figures 6 and 7): the
// metric hierarchy with percentage-of-total-time annotations, the
// distribution of a selected metric over the call tree, and the
// distribution at a selected call path over the system hierarchy
// (metahost → node → process).

// severityMark translates a percentage into a coarse visual cue, the
// ASCII stand-in for the browser's coloured squares.
func severityMark(pct float64) string {
	switch {
	case pct >= 20:
		return "###"
	case pct >= 10:
		return "## "
	case pct >= 5:
		return "#  "
	case pct >= 1:
		return "+  "
	case pct > 0:
		return ".  "
	default:
		return "   "
	}
}

// RenderMetricTree renders the metric panel: every metric with its
// inclusive value as a percentage of total time (counts for "occ"
// metrics). The text is appended into one buffer sized up front, and
// total time is summed once.
func (r *Report) RenderMetricTree() string {
	t := r.TotalTime()
	size := 64
	for i := range r.Metrics {
		size += 64 + len(r.Metrics[i].Name) + len(r.Metrics[i].Unit)
	}
	b := make([]byte, 0, size)
	b = append(b, "Metric tree (total time "...)
	b = appendFixed(b, t, 3, 0)
	b = append(b, " s)\n"...)
	for i := range r.Metrics {
		if r.Metrics[i].Parent == -1 {
			b = r.appendMetricTree(b, i, 0, t)
		}
	}
	return string(b)
}

// appendMetricTree appends metric m's line of the metric panel, indented
// by depth, and then its children's subtrees in index order.
func (r *Report) appendMetricTree(b []byte, m, depth int, t float64) []byte {
	md := &r.Metrics[m]
	if md.Unit != "sec" {
		b = append(b, "       "...)
		b = appendIndent(b, depth)
		b = append(b, "- "...)
		b = append(b, md.Name...)
		b = append(b, " = "...)
		b = appendFixed(b, r.MetricTotal(m), 0, 0)
		b = append(b, ' ')
		b = append(b, md.Unit...)
	} else {
		pct := r.percentOf(m, t)
		b = appendFixed(b, pct, 1, 5)
		b = append(b, "% "...)
		b = append(b, severityMark(pct)...)
		b = appendIndent(b, depth)
		b = append(b, ' ')
		b = append(b, md.Name...)
	}
	b = append(b, '\n')
	for ch := range r.Metrics {
		if r.Metrics[ch].Parent == m {
			b = r.appendMetricTree(b, ch, depth+1, t)
		}
	}
	return b
}

// appendIndent appends two spaces per level of depth.
func appendIndent(b []byte, depth int) []byte {
	for range depth {
		b = append(b, "  "...)
	}
	return b
}

// appendFixed appends v as fmt's %*.*f prints it: prec decimals, padded
// on the left with spaces to width.
func appendFixed(b []byte, v float64, prec, width int) []byte {
	var num [32]byte
	s := strconv.AppendFloat(num[:0], v, 'f', prec, 64)
	for range width - len(s) {
		b = append(b, ' ')
	}
	return append(b, s...)
}

// RenderCallTree renders the call-tree panel for one metric: each call
// path annotated with the metric's inclusive (metric subtree) value at
// that node.
func (r *Report) RenderCallTree(metricKey string) string {
	m := r.MetricIndex(metricKey)
	if m < 0 {
		return fmt.Sprintf("unknown metric %q\n", metricKey)
	}
	total := r.MetricTotal(m)
	var b strings.Builder
	fmt.Fprintf(&b, "Call tree for %s (%.3f s total)\n", r.Metrics[m].Name, total)
	var walk func(c, depth int)
	walk = func(c, depth int) {
		v := r.MetricCallValue(m, c)
		share := 0.0
		if total > 0 {
			share = 100 * v / total
		}
		fmt.Fprintf(&b, "%10.3f s %5.1f%% %s%s\n", v, share, strings.Repeat("  ", depth), r.Calls[c].Name)
		children := r.CallChildren(c)
		sort.Slice(children, func(i, j int) bool {
			return r.MetricCallInclusive(m, children[i]) > r.MetricCallInclusive(m, children[j])
		})
		for _, ch := range children {
			walk(ch, depth+1)
		}
	}
	var roots []int
	for i := range r.Calls {
		if r.Calls[i].Parent == -1 {
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		return r.MetricCallInclusive(m, roots[i]) > r.MetricCallInclusive(m, roots[j])
	})
	for _, c := range roots {
		walk(c, 0)
	}
	return b.String()
}

// RenderSystemTree renders the system panel for one metric at one call
// node: metahost → node → process, with the metric's value per
// process and aggregates per node and metahost.
func (r *Report) RenderSystemTree(metricKey string, call int) string {
	m := r.MetricIndex(metricKey)
	if m < 0 {
		return fmt.Sprintf("unknown metric %q\n", metricKey)
	}
	var b strings.Builder
	where := "all call paths"
	if call >= 0 {
		where = PathString(r.CallPath(call))
	}
	fmt.Fprintf(&b, "System tree for %s at %s\n", r.Metrics[m].Name, where)

	type nodeKey struct {
		mh   string
		node int
	}
	byMH := map[string][]int{}
	byNode := map[nodeKey][]int{}
	var mhs []string
	for l, loc := range r.Locs {
		if _, ok := byMH[loc.MetahostName]; !ok {
			mhs = append(mhs, loc.MetahostName)
		}
		byMH[loc.MetahostName] = append(byMH[loc.MetahostName], l)
		nk := nodeKey{loc.MetahostName, loc.Node}
		byNode[nk] = append(byNode[nk], l)
	}
	value := func(l int) float64 {
		if call >= 0 {
			return r.MetricLocValue(m, call, l)
		}
		// Whole-program view: sum over the call roots.
		total := 0.0
		for c := range r.Calls {
			if r.Calls[c].Parent == -1 {
				total += r.MetricLocValue(m, c, l)
			}
		}
		return total
	}
	for _, mh := range mhs {
		mhTotal := 0.0
		for _, l := range byMH[mh] {
			mhTotal += value(l)
		}
		fmt.Fprintf(&b, "  %-12s %10.3f s\n", mh, mhTotal)
		var nodes []int
		seen := map[int]bool{}
		for _, l := range byMH[mh] {
			if !seen[r.Locs[l].Node] {
				seen[r.Locs[l].Node] = true
				nodes = append(nodes, r.Locs[l].Node)
			}
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			locs := byNode[nodeKey{mh, n}]
			nodeTotal := 0.0
			for _, l := range locs {
				nodeTotal += value(l)
			}
			fmt.Fprintf(&b, "    node %-3d   %10.3f s\n", n, nodeTotal)
			sort.Slice(locs, func(i, j int) bool { return r.Locs[locs[i]].Rank < r.Locs[locs[j]].Rank })
			for _, l := range locs {
				fmt.Fprintf(&b, "      rank %-4d%10.3f s\n", r.Locs[l].Rank, value(l))
			}
		}
	}
	return b.String()
}

// RenderFigure renders the full three-panel view for one metric,
// selecting the hottest call path for the system panel — the way the
// screenshots in Figures 6 and 7 are composed.
func (r *Report) RenderFigure(metricKey string) string {
	m := r.MetricIndex(metricKey)
	if m < 0 {
		return fmt.Sprintf("unknown metric %q\n", metricKey)
	}
	hot, _ := r.HottestCall(m)
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s (%.1f%% of total time) ===\n\n",
		r.Title, r.Metrics[m].Name, r.MetricPercent(m))
	b.WriteString(r.RenderMetricTree())
	b.WriteString("\n")
	b.WriteString(r.RenderCallTree(metricKey))
	b.WriteString("\n")
	b.WriteString(r.RenderSystemTree(metricKey, hot))
	return b.String()
}
