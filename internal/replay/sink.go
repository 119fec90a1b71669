package replay

import (
	"fmt"
	"math"
	"sync"
)

// deltaKey identifies one streamed severity series: a metric family
// (the base pattern key — grid and wrong-order specializations are
// folded into their family, whose cube total is subtree-inclusive) on
// one metahost.
type deltaKey struct {
	Metric   string
	Metahost int
}

// streamSink collects severity mass into fixed time windows while the
// replay runs. Workers deposit each detected wait interval (or volume
// point) as it is scored; the window scheduler periodically drains the
// sink and publishes the deltas of every touched window. Intervals are
// spread across windows proportionally to overlap — the same rule the
// profile accumulator uses — so the per-window deltas of one series
// sum exactly to the severity total deposited, which is what lets the
// conformance oracle check cumulative stream sums against the final
// cube.
type streamSink struct {
	mu     sync.Mutex
	origin float64
	width  float64 // window width in corrected seconds
	cur    map[int64]map[deltaKey]float64
	total  map[deltaKey]float64
	// fail ends the session when a deposit is refused (Live.fail).
	fail func(error)
}

// maxDepositWindows caps the windows one deposit may span. Every window
// a deposit touches costs a map, so without the cap one hostile time
// stamp, or a legal nanosecond window under an ordinary wait state,
// would allocate without bound.
const maxDepositWindows = 1 << 16

func newStreamSink(origin, width float64, fail func(error)) *streamSink {
	if width <= 0 {
		width = 1
	}
	return &streamSink{
		origin: origin,
		width:  width,
		cur:    make(map[int64]map[deltaKey]float64),
		total:  make(map[deltaKey]float64),
		fail:   fail,
	}
}

// windowOf returns the index of the window containing corrected time t.
func (s *streamSink) windowOf(t float64) int64 {
	return int64(math.Floor((t - s.origin) / s.width))
}

// add deposits value, scored by rank's worker, over the corrected
// interval [start, start+dur). A non-positive duration deposits at
// start's window. An interval spanning more than maxDepositWindows
// windows is not deposited: it fails the session.
func (s *streamSink) add(rank int, k deltaKey, start, dur, value float64) {
	if value == 0 {
		return
	}
	if dur > 0 {
		// Counted in floating point: a hostile time stamp over a narrow
		// window overflows the int64 window index.
		n := math.Floor((start+dur-s.origin)/s.width) - math.Floor((start-s.origin)/s.width) + 1
		if !(n <= maxDepositWindows) { // NaN is refused too
			s.fail(fmt.Errorf("replay: rank %d: wait interval [%g, %g) spans %.0f stream windows of %g s (limit %d)",
				rank, start, start+dur, n, s.width, maxDepositWindows))
			return
		}
	}
	s.mu.Lock()
	s.total[k] += value
	if dur <= 0 {
		s.depositLocked(k, s.windowOf(start), value)
		s.mu.Unlock()
		return
	}
	end := start + dur
	w0, w1 := s.windowOf(start), s.windowOf(end)
	if w1 > w0 && end == s.origin+float64(w1)*s.width {
		w1-- // interval ends exactly on a window edge
	}
	if w0 == w1 {
		s.depositLocked(k, w0, value)
		s.mu.Unlock()
		return
	}
	for w := w0; w <= w1; w++ {
		lo := math.Max(start, s.origin+float64(w)*s.width)
		hi := math.Min(end, s.origin+float64(w+1)*s.width)
		if hi > lo {
			s.depositLocked(k, w, value*(hi-lo)/dur)
		}
	}
	s.mu.Unlock()
}

func (s *streamSink) depositLocked(k deltaKey, w int64, v float64) {
	m := s.cur[w]
	if m == nil {
		m = make(map[deltaKey]float64, 4)
		s.cur[w] = m
	}
	m[k] += v
}

// drain swaps out and returns everything deposited since the previous
// drain, keyed by window index.
func (s *streamSink) drain() map[int64]map[deltaKey]float64 {
	s.mu.Lock()
	out := s.cur
	s.cur = make(map[int64]map[deltaKey]float64)
	s.mu.Unlock()
	return out
}

// totals returns a copy of the cumulative per-series mass deposited
// over the sink's lifetime.
func (s *streamSink) totals() map[deltaKey]float64 {
	s.mu.Lock()
	out := make(map[deltaKey]float64, len(s.total))
	for k, v := range s.total {
		out[k] = v
	}
	s.mu.Unlock()
	return out
}
