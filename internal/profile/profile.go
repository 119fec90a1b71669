// Package profile implements time-resolved wait-state profiles: while
// the pattern search of the analyzer collapses every wait-state
// pattern into one severity number per (metric, call path, rank) for
// the whole run, this package keeps a severity *time series* per
// (metric, metahost, rank), so phase behavior — a late sender that only
// appears during the exchange phase, a barrier wait that grows every
// iteration — stays visible. The approach follows the time-resolved
// MPI analyses of Haldar et al. (PAPERS.md): standard severities,
// resolved over fixed intervals of the synchronized global timeline.
//
// The accumulator is streaming with O(1) memory per series: each
// series holds a fixed number of buckets whose width doubles (folding
// neighbor pairs) whenever a sample falls beyond the covered range.
// Because severities are spread over buckets proportionally to
// interval overlap and folding preserves exactly those sums, the final
// bucket contents depend only on the sample set and the final width —
// not on arrival order — which keeps profiles byte-identical across
// runs of the same deterministic experiment as long as samples are
// *added in a deterministic order* (floating-point addition is not
// associative). The replay analyzer therefore defers its samples to
// per-process logs and feeds one accumulator from them in rank order,
// on one goroutine.
package profile

import "sort"

// DefaultBuckets is the bucket count used when Config.Buckets is zero.
const DefaultBuckets = 64

// Metric keys for the built-in message-volume series; wait-state
// series use the pattern metric keys of the report's metric tree.
const (
	// KeyBytesIntra is the per-interval point-to-point payload volume
	// that stays inside one metahost.
	KeyBytesIntra = "comm.bytes.intra"
	// KeyBytesWide is the per-interval point-to-point payload volume
	// crossing metahost boundaries — the expensive wide-area traffic.
	KeyBytesWide = "comm.bytes.wide"
)

// Config shapes an accumulator.
type Config struct {
	// Buckets is the fixed bucket count per series (0 = DefaultBuckets).
	Buckets int
	// Width is the initial bucket width in seconds; it doubles as
	// needed to cover the run. Zero selects 1 ms. Callers that know the
	// run span up front should pass span/Buckets so no folding occurs.
	Width float64
	// Origin is the global time (in corrected seconds) of bucket 0's
	// left edge; samples before it are clamped into bucket 0.
	Origin float64
}

func (c Config) normalized() Config {
	if c.Buckets <= 0 {
		c.Buckets = DefaultBuckets
	}
	if c.Width <= 0 {
		c.Width = 1e-3
	}
	return c
}

// Key identifies one severity time series.
type Key struct {
	// Metric is the stable metric key (a pattern metric key or one of
	// the Key* volume constants).
	Metric string
	// Metahost and Rank locate the process the severity is attributed
	// to. Rank -1 holds a metahost-level aggregate (unused by the
	// analyzer, which aggregates at render time).
	Metahost int
	Rank     int
}

type series struct {
	width float64
	sums  []float64
	count int64
}

// fold doubles the bucket width k times, summing neighbor pairs.
func (s *series) fold(k int) {
	for ; k > 0; k-- {
		n := len(s.sums)
		for i := 0; i < n/2; i++ {
			s.sums[i] = s.sums[2*i] + s.sums[2*i+1]
		}
		if n%2 == 1 {
			s.sums[n/2] = s.sums[n-1]
		} else {
			s.sums[n/2] = 0
		}
		for i := n/2 + 1; i < n; i++ {
			s.sums[i] = 0
		}
		s.width *= 2
	}
}

// widen grows the width until origin+width*len covers t.
func (s *series) widen(origin, t float64) {
	for t >= origin+s.width*float64(len(s.sums)) {
		s.fold(1)
	}
}

// add spreads value over [start, start+dur) proportionally to bucket
// overlap; dur <= 0 deposits the whole value into start's bucket.
func (s *series) add(origin, start, dur, value float64) {
	s.count++
	if start < origin {
		if dur > 0 {
			dur -= origin - start
			if dur < 0 {
				dur = 0
			}
		}
		start = origin
	}
	if dur <= 0 {
		s.widen(origin, start)
		s.sums[int((start-origin)/s.width)] += value
		return
	}
	end := start + dur
	s.widen(origin, end)
	lo := int((start - origin) / s.width)
	hi := int((end - origin) / s.width)
	if hi >= len(s.sums) { // end exactly on the right edge
		hi = len(s.sums) - 1
	}
	if lo == hi {
		s.sums[lo] += value
		return
	}
	for b := lo; b <= hi; b++ {
		bStart := origin + float64(b)*s.width
		bEnd := bStart + s.width
		oStart, oEnd := start, end
		if bStart > oStart {
			oStart = bStart
		}
		if bEnd < oEnd {
			oEnd = bEnd
		}
		if oEnd > oStart {
			s.sums[b] += value * (oEnd - oStart) / dur
		}
	}
}

// Accumulator collects severity samples into per-key series. It is not
// safe for concurrent use: the bucket sums depend on the order of the
// Add calls, so the order is the caller's to fix.
type Accumulator struct {
	cfg Config

	series map[Key]*series
	// names resolves metahost ids to display names in snapshots.
	names map[int]string
	// meta resolves metric keys to display name and unit.
	meta map[string]SeriesMeta
}

// SeriesMeta carries display information for one metric key.
type SeriesMeta struct {
	Name string
	Unit string // "sec" or "bytes"
}

// NewAccumulator creates an empty accumulator.
func NewAccumulator(cfg Config) *Accumulator {
	return &Accumulator{
		cfg:    cfg.normalized(),
		series: make(map[Key]*series),
		names:  make(map[int]string),
		meta:   make(map[string]SeriesMeta),
	}
}

// SetMetahostName records a display name for a metahost id.
func (a *Accumulator) SetMetahostName(id int, name string) { a.names[id] = name }

// SetMeta records display name and unit for a metric key.
func (a *Accumulator) SetMeta(metric string, m SeriesMeta) { a.meta[metric] = m }

// Handle deposits into one series of an accumulator without looking the
// series up again.
type Handle struct {
	s      *series
	origin float64
}

// Series returns the handle of series k, creating the series — which
// then appears in the snapshot — on first use. A caller that deposits
// many samples of one key resolves it once, on the first of them.
func (a *Accumulator) Series(k Key) Handle {
	s, ok := a.series[k]
	if !ok {
		s = &series{width: a.cfg.Width, sums: make([]float64, a.cfg.Buckets)}
		a.series[k] = s
	}
	return Handle{s: s, origin: a.cfg.Origin}
}

// Add spreads value over the interval [start, start+dur) of the series;
// dur <= 0 deposits the whole value at start. Times are corrected
// (synchronized) seconds, like every severity the analyzer computes.
func (h Handle) Add(start, dur, value float64) { h.s.add(h.origin, start, dur, value) }

func sortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Metric != keys[j].Metric {
			return keys[i].Metric < keys[j].Metric
		}
		if keys[i].Metahost != keys[j].Metahost {
			return keys[i].Metahost < keys[j].Metahost
		}
		return keys[i].Rank < keys[j].Rank
	})
}

// Snapshot renders the accumulator into the exportable artifact: all
// series folded to one common bucket width, sorted by (metric,
// metahost, rank).
func (a *Accumulator) Snapshot(title string) *Profile {
	p := &Profile{
		Title:       title,
		Origin:      a.cfg.Origin,
		BucketWidth: a.cfg.Width,
		Buckets:     a.cfg.Buckets,
	}
	if len(a.series) == 0 {
		return p
	}
	common := a.cfg.Width
	for _, s := range a.series {
		if s.width > common {
			common = s.width
		}
	}
	p.BucketWidth = common
	keys := make([]Key, 0, len(a.series))
	for k := range a.series {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		src := a.series[k]
		cp := series{width: src.width, sums: append([]float64(nil), src.sums...), count: src.count}
		for cp.width < common {
			cp.fold(1)
		}
		meta := a.meta[k.Metric]
		p.Series = append(p.Series, Series{
			Metric:       k.Metric,
			Name:         meta.Name,
			Unit:         meta.Unit,
			Metahost:     k.Metahost,
			MetahostName: a.names[k.Metahost],
			Rank:         k.Rank,
			Count:        cp.count,
			Values:       cp.sums,
		})
	}
	return p
}
