package cube

import (
	"fmt"
	"strings"
)

// Finding is one automatically extracted performance diagnosis: a
// wait-state metric, its share of total time, and where it
// concentrates in the call tree and the system. It mechanizes the
// narrative §5 of the paper derives by hand from the three panels
// ("the grid-specific Late Sender version consumes 9.3 % of the
// overall execution time … inside cgiteration … on the faster FH-BRS
// cluster").
type Finding struct {
	MetricKey  string
	MetricName string
	Percent    float64 // share of total time
	Seconds    float64
	// CallPath is the call path holding the largest share of the
	// metric, and CallShare that share (0..1).
	CallPath  string
	CallShare float64
	// Metahost is the metahost bearing the largest share of the metric
	// at CallPath, with its share (0..1).
	Metahost      string
	MetahostShare float64
}

// Findings extracts the top wait-state diagnoses: pattern metrics (the
// subtree below "mpi") with at least minPercent of total time, most
// severe first, at most n entries. Aggregation metrics whose children
// carry the value (e.g. Late Sender fully explained by Grid Late
// Sender) are reported at the most specific level that still covers
// the bulk of the time, so a finding names the grid variant when the
// waits really are grid waits.
func (r *Report) Findings(n int, minPercent float64) []Finding {
	total := r.TotalTime()
	if total <= 0 {
		return nil
	}
	mpi := r.MetricIndex("mpi")
	if mpi < 0 {
		return nil
	}
	// Candidate metrics: wait-state leaves of the mpi subtree — skip
	// the structural time aggregates (communication/p2p/… hold call
	// time, not waits).
	structural := map[string]bool{
		"mpi": true, "mpi.communication": true, "mpi.communication.p2p": true,
		"mpi.communication.collective": true, "mpi.synchronization": true,
	}
	// Most specific dominant level: drop a candidate if one of its
	// children carries ≥ 85 % of its inclusive value (the child is the
	// better diagnosis), or if several reportable children jointly
	// cover ≥ 85 % (the per-pair breakdown explains the parent).
	// Conversely drop children below minPercent. The kept candidates go
	// into top, most severe first and cut to n as they come, so only the
	// reported ones are described below.
	type pick struct {
		m       int
		incl    float64
		percent float64
	}
	before := func(x, y pick) bool {
		if x.percent != y.percent {
			return x.percent > y.percent
		}
		return r.Metrics[x.m].Key < r.Metrics[y.m].Key
	}
	top := make([]pick, 0, max(min(n, len(r.Metrics)), 0))
	r.eachMetric(mpi, func(m int) {
		if structural[r.Metrics[m].Key] {
			return
		}
		incl := r.MetricTotal(m)
		if 100*incl/total < minPercent {
			return
		}
		covered := 0.0
		for ch := range r.Metrics {
			if r.Metrics[ch].Parent != m {
				continue
			}
			if chV := r.MetricTotal(ch); 100*chV/total >= minPercent {
				covered += chV
			}
		}
		if incl > 0 && covered >= 0.85*incl {
			return
		}
		p := pick{m: m, incl: incl, percent: 100 * incl / total}
		i := len(top)
		for i > 0 && before(p, top[i-1]) {
			i--
		}
		if i < n {
			if len(top) < n {
				top = append(top, pick{})
			}
			copy(top[i+1:], top[i:])
			top[i] = p
		}
	})
	if len(top) == 0 {
		return nil
	}
	names := r.MetahostNames()
	out := make([]Finding, len(top))
	for i, p := range top {
		m, incl := p.m, p.incl
		hot, _ := r.HottestCall(m)
		f := Finding{
			MetricKey:  r.Metrics[m].Key,
			MetricName: r.Metrics[m].Name,
			Percent:    p.percent,
			Seconds:    incl,
		}
		if hot >= 0 {
			f.CallPath = PathString(r.CallPath(hot))
			if incl > 0 {
				f.CallShare = r.MetricCallValue(m, hot) / incl
			}
			bestMH, bestV := "", 0.0
			for _, mh := range names {
				if v := r.MetahostValue(m, hot, mh); v > bestV {
					bestMH, bestV = mh, v
				}
			}
			if at := r.MetricLocSum(m, hot); at > 0 {
				f.Metahost = bestMH
				f.MetahostShare = bestV / at
			}
		}
		out[i] = f
	}
	return out
}

// MetricLocSum sums metric m (inclusive, call subtree) over all
// locations at one call node.
func (r *Report) MetricLocSum(m, call int) float64 {
	total := 0.0
	for l := range r.Locs {
		total += r.MetricLocValue(m, call, l)
	}
	return total
}

// RenderFindings formats the diagnoses as sentences.
func RenderFindings(fs []Finding) string {
	if len(fs) == 0 {
		return "No significant wait states found.\n"
	}
	var b strings.Builder
	b.WriteString("Findings (most severe wait states):\n")
	for i, f := range fs {
		fmt.Fprintf(&b, "%d. %s: %.1f%% of total time (%.1f s)", i+1, f.MetricName, f.Percent, f.Seconds)
		if f.CallPath != "" {
			fmt.Fprintf(&b, ", %.0f%% of it in %s", 100*f.CallShare, f.CallPath)
		}
		if f.Metahost != "" {
			fmt.Fprintf(&b, ", mostly on %s (%.0f%%)", f.Metahost, 100*f.MetahostShare)
		}
		b.WriteString(".\n")
	}
	return b.String()
}
