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
// The accumulator has one fixed time axis — origin, bucket width and
// bucket count, set before the first sample — and O(buckets) memory per
// series. A sample is spread over the buckets proportionally to
// interval overlap; a time outside the axis is clamped onto the first
// or last bucket, so every series keeps the mass it was given. The
// bucket contents depend only on the sample set and the axis, but
// floating-point addition is not associative, so profiles are
// byte-identical across runs only when samples are *added in a
// deterministic order*. The replay analyzer therefore defers its
// samples to per-process logs, sizes the axis from the finished run,
// and feeds one accumulator from the logs in rank order, on one
// goroutine.
package profile

import (
	"cmp"
	"slices"
	"strings"
)

// DefaultBuckets is the bucket count used when Config.Buckets is zero.
const DefaultBuckets = 64

// MaxBuckets bounds the bucket count of a profile: Read refuses an
// artifact declaring more, and the analyzer a configuration asking for
// more, so a bucket count never sizes an allocation unchecked.
const MaxBuckets = 1 << 16

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
	// Width is the bucket width in seconds (0 = 1 ms).
	Width float64
	// Origin is the global time (in corrected seconds) of bucket 0's
	// left edge.
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
	sums  []float64
	count int64
}

// add spreads value over [start, start+dur) proportionally to bucket
// overlap; dur <= 0 deposits the whole value into start's bucket. The
// part of an interval outside the axis is cut off and the value spread
// over the rest, so a sample wholly outside lands in an edge bucket.
func (s *series) add(origin, width, start, dur, value float64) {
	s.count++
	if start < origin {
		if dur > 0 {
			dur = max(dur-(origin-start), 0)
		}
		start = origin
	}
	end := start + dur
	if right := origin + width*float64(len(s.sums)); end > right {
		end, dur = right, right-start
	}
	lo, hi := s.bucket(origin, width, start), s.bucket(origin, width, end)
	if dur <= 0 || lo == hi {
		s.sums[lo] += value
		return
	}
	for b := lo; b <= hi; b++ {
		bStart := origin + float64(b)*width
		bEnd := bStart + width
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

// bucket is the index of the bucket holding t >= origin; a time at or
// past the axis' right edge is in the last bucket.
func (s *series) bucket(origin, width, t float64) int {
	if x := (t - origin) / width; x < float64(len(s.sums)) {
		return int(x)
	}
	return len(s.sums) - 1
}

// Accumulator collects severity samples into per-key series. It is not
// safe for concurrent use: the bucket sums depend on the order of the
// Add calls, so the order is the caller's to fix. Snapshot spends it:
// the artifact takes the series' sums over instead of copying them.
type Accumulator struct {
	cfg Config

	// series is nil once Snapshot has spent the accumulator.
	series map[Key]*series
	// free is the unused tail of the block series — and their sums — are
	// cut from. A block holds as many series as were made before it, at
	// least 8 and at most 32 KiB of sums, so an accumulator of many
	// series makes few allocations and one of few wastes little.
	free []series
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
	s             *series
	origin, width float64
}

// Series returns the handle of series k, creating the series — which
// then appears in the snapshot — on first use. A caller that deposits
// many samples of one key resolves it once, on the first of them.
func (a *Accumulator) Series(k Key) Handle {
	if a.series == nil {
		panic("profile: Series on an accumulator Snapshot has spent")
	}
	s, ok := a.series[k]
	if !ok {
		if len(a.free) == 0 {
			n := a.cfg.Buckets
			block := min(max(len(a.series), 8), max(32<<10/8/n, 1))
			sums := make([]float64, block*n)
			a.free = make([]series, block)
			for i := range a.free {
				a.free[i].sums = sums[i*n : (i+1)*n : (i+1)*n]
			}
		}
		s = &a.free[0]
		a.free = a.free[1:]
		a.series[k] = s
	}
	return Handle{s: s, origin: a.cfg.Origin, width: a.cfg.Width}
}

// Add spreads value over the interval [start, start+dur) of the series;
// dur <= 0 deposits the whole value at start. Times are corrected
// (synchronized) seconds, like every severity the analyzer computes.
func (h Handle) Add(start, dur, value float64) { h.s.add(h.origin, h.width, start, dur, value) }

// compareKeys orders keys by (metric, metahost, rank).
func compareKeys(x, y Key) int {
	return cmp.Or(strings.Compare(x.Metric, y.Metric), cmp.Compare(x.Metahost, y.Metahost), cmp.Compare(x.Rank, y.Rank))
}

// sortKey is a series' place in the snapshot: its metric's place among
// the distinct metrics by name, its metahost and its rank.
type sortKey struct {
	metric, metahost, rank int
	s                      *series
}

// Snapshot renders the accumulator into the exportable artifact: every
// series on the accumulator's axis, sorted by (metric, metahost, rank).
// The artifact's values are the series' own sums, so the accumulator is
// spent: Series and Snapshot on it panic, and a sample added through a
// handle taken before would change the artifact.
func (a *Accumulator) Snapshot(title string) *Profile {
	if a.series == nil {
		panic("profile: Snapshot of an accumulator Snapshot has spent")
	}
	p := &Profile{
		Title:       title,
		Origin:      a.cfg.Origin,
		BucketWidth: a.cfg.Width,
		Buckets:     a.cfg.Buckets,
	}
	// The series in compareKeys order, sorted by integers: a series'
	// metric is found among the handful of distinct metrics, listed in
	// name order, and its place there stands for its name.
	var small [32]string
	metrics := small[:0]
	for k := range a.series {
		if !slices.Contains(metrics, k.Metric) {
			metrics = append(metrics, k.Metric)
		}
	}
	slices.Sort(metrics)
	keys := make([]sortKey, 0, len(a.series))
	for k, s := range a.series {
		keys = append(keys, sortKey{metric: slices.Index(metrics, k.Metric), metahost: k.Metahost, rank: k.Rank, s: s})
	}
	slices.SortFunc(keys, func(x, y sortKey) int {
		switch {
		case x.metric != y.metric:
			return x.metric - y.metric
		case x.metahost != y.metahost:
			return cmp.Compare(x.metahost, y.metahost)
		}
		return cmp.Compare(x.rank, y.rank)
	})
	if len(keys) > 0 {
		p.Series = make([]Series, len(keys))
	}
	for i, k := range keys {
		s, metric := k.s, metrics[k.metric]
		meta := a.meta[metric]
		p.Series[i] = Series{
			Metric:       metric,
			Name:         meta.Name,
			Unit:         meta.Unit,
			Metahost:     k.metahost,
			MetahostName: a.names[k.metahost],
			Rank:         k.rank,
			Count:        s.count,
			Values:       s.sums,
		}
	}
	a.series, a.free = nil, nil
	return p
}
