package replay

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"metascope/internal/phase"
)

// sinkFamilies lists the metrics deposits are streamed under — the
// pattern families: grid and wrong-order specializations are children of
// their base pattern in the metric tree, whose cube total is
// subtree-inclusive — and sinkFamily gives every ledger metric its
// family's index in that list. Built once, so that a deposit is keyed by
// two small integers and no metric name is hashed, or even formed, while
// the replay runs.
var sinkFamilies, sinkFamily = func() (fams []metricID, of [numMetrics]int) {
	index := make(map[string]int, numMetrics)
	for m := metricID(0); m < numMetrics; m++ {
		if m.key() == phase.FamilyOf(m.key()) {
			index[m.key()] = len(fams)
			fams = append(fams, m)
		}
	}
	for m := metricID(0); m < numMetrics; m++ {
		of[m] = index[phase.FamilyOf(m.key())]
	}
	return fams, of
}()

// sinkCell is the mass one streamed series — a metric family on one
// metahost — received; set tells a series that received none from one
// whose deposits cancelled.
type sinkCell struct {
	v   float64
	set bool
}

// streamSink collects severity mass into fixed time windows while the
// replay runs. Steps deposit each detected wait interval (or volume
// point) as it is scored; the live session's drain goroutine periodically
// empties the sink and publishes the deltas of every touched window. Intervals are
// spread across windows proportionally to overlap — the same rule the
// profile accumulator uses — so the per-window deltas of one series
// sum exactly to the severity total deposited, which is what lets the
// conformance oracle check cumulative stream sums against the final
// cube.
//
// A window is one dense row of cells, indexed by (family, metahost
// column); names are attached only when a row leaves the sink (deltas).
type streamSink struct {
	mu     sync.Mutex
	origin float64
	width  float64 // window width in corrected seconds
	// metahosts lists the world's metahost ids in ascending order — the
	// columns of a row — and col gives each rank its metahost's column.
	metahosts []int
	col       []int
	cur       map[int64][]sinkCell
	total     []sinkCell
	// fail ends the session when a deposit is refused (Live.fail).
	fail func(error)
}

// maxDepositWindows caps the windows one deposit may span. Every window
// a deposit touches costs a row, so without the cap one hostile time
// stamp, or a legal nanosecond window under an ordinary wait state,
// would allocate without bound.
const maxDepositWindows = 1 << 16

// newStreamSink makes the sink of a world over the given metahosts, whose
// rank r sits on metahosts[col[r]] (analyzer.metahosts and mhCol).
func newStreamSink(origin, width float64, metahosts, col []int, fail func(error)) *streamSink {
	if width <= 0 {
		width = 1
	}
	s := &streamSink{
		origin:    origin,
		width:     width,
		metahosts: metahosts,
		col:       col,
		cur:       make(map[int64][]sinkCell),
		fail:      fail,
	}
	s.total = s.newRow()
	return s
}

func (s *streamSink) newRow() []sinkCell {
	return make([]sinkCell, len(sinkFamilies)*len(s.metahosts))
}

// windowOf returns the index of the window containing corrected time t.
func (s *streamSink) windowOf(t float64) int64 {
	return int64(math.Floor((t - s.origin) / s.width))
}

// add deposits value, scored by rank scorer's step as metric m of rank, over
// the corrected interval [start, start+dur). A non-positive duration
// deposits at start's window. An interval spanning more than
// maxDepositWindows windows is not deposited: it fails the session.
func (s *streamSink) add(scorer int, m metricID, rank int32, start, dur, value float64) {
	if value == 0 {
		return
	}
	if dur > 0 {
		// Counted in floating point: a hostile time stamp over a narrow
		// window overflows the int64 window index.
		n := math.Floor((start+dur-s.origin)/s.width) - math.Floor((start-s.origin)/s.width) + 1
		if !(n <= maxDepositWindows) { // NaN is refused too
			s.fail(fmt.Errorf("replay: rank %d: wait interval [%g, %g) spans %.0f stream windows of %g s (limit %d)",
				scorer, start, start+dur, n, s.width, maxDepositWindows))
			return
		}
	}
	k := sinkFamily[m]*len(s.metahosts) + s.col[rank]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total[k].v += value
	s.total[k].set = true
	if dur <= 0 {
		s.depositLocked(k, s.windowOf(start), value)
		return
	}
	end := start + dur
	w0, w1 := s.windowOf(start), s.windowOf(end)
	if w1 > w0 && end == s.origin+float64(w1)*s.width {
		w1-- // interval ends exactly on a window edge
	}
	if w0 == w1 {
		s.depositLocked(k, w0, value)
		return
	}
	for w := w0; w <= w1; w++ {
		lo := math.Max(start, s.origin+float64(w)*s.width)
		hi := math.Min(end, s.origin+float64(w+1)*s.width)
		if hi > lo {
			s.depositLocked(k, w, value*(hi-lo)/dur)
		}
	}
}

func (s *streamSink) depositLocked(k int, w int64, v float64) {
	row := s.cur[w]
	if row == nil {
		row = s.newRow()
		s.cur[w] = row
	}
	row[k].v += v
	row[k].set = true
}

// drain swaps out and returns everything deposited since the previous
// drain, keyed by window index.
func (s *streamSink) drain() map[int64][]sinkCell {
	s.mu.Lock()
	out := s.cur
	s.cur = make(map[int64][]sinkCell)
	s.mu.Unlock()
	return out
}

// totals returns the cumulative per-series mass deposited over the
// sink's lifetime.
func (s *streamSink) totals() []WindowDelta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltas(s.total)
}

// deltas names the series of a row that received mass, ordered by
// metric key, then metahost.
func (s *streamSink) deltas(row []sinkCell) []WindowDelta {
	var out []WindowDelta
	for k, c := range row {
		if c.set {
			fam, mh := sinkFamilies[k/len(s.metahosts)], s.metahosts[k%len(s.metahosts)]
			out = append(out, WindowDelta{Metric: fam.key(), Metahost: mh, Value: c.v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Metric != out[j].Metric {
			return out[i].Metric < out[j].Metric
		}
		return out[i].Metahost < out[j].Metahost
	})
	return out
}
