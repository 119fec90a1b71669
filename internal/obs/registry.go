package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families a Registry can hold.
type Kind int

// The three family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE spelling.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Registry is a concurrency-safe collection of metric families.
// Registering an existing name returns the existing family (the kind
// and label names must match); all mutation paths are safe for
// concurrent use from any number of goroutines.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*Family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*Family)} }

// Family is one named metric with a fixed kind and label-name set,
// holding one Series per distinct label-value combination.
type Family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64      // histogram kind only; strictly increasing
	read    func() float64 // computed gauges only; called at render time

	mu     sync.RWMutex
	series map[string]*Series
}

// seriesKeySep joins label values into map keys; 0xff cannot appear in
// valid UTF-8 label values.
const seriesKeySep = "\xff"

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) family(name, help string, kind Kind, labels []string, buckets []float64, read func() float64) *Family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", name, kind, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with %d labels (was %d)", name, len(labels), len(f.labels)))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
			}
		}
		return f
	}
	f := &Family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		read:    read,
		series:  make(map[string]*Series),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or retrieves) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.family(name, help, KindCounter, labels, nil, nil)
}

// Gauge registers (or retrieves) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.family(name, help, KindGauge, labels, nil, nil)
}

// GaugeFunc registers (or retrieves) a label-less gauge whose value is
// read calls each time the registry is rendered, so nothing has to keep
// it current. Re-registering the name keeps the first read function.
func (r *Registry) GaugeFunc(name, help string, read func() float64) *Family {
	f := r.family(name, help, KindGauge, nil, nil, read)
	f.With()
	return f
}

// Histogram registers (or retrieves) a histogram family with fixed,
// strictly increasing bucket upper bounds; an implicit +Inf bucket
// catches overflow. Nil buckets select SecondsBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Family {
	if buckets == nil {
		buckets = SecondsBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing at %d", name, i))
		}
	}
	return r.family(name, help, KindHistogram, labels, buckets, nil)
}

// Series is one labeled time series of a family. Counter and gauge
// series hold one float64; histogram series hold bucket counts, a
// total count, and a sum.
type Series struct {
	fam    *Family
	values []string

	bits    atomic.Uint64   // counter/gauge value (float64 bits)
	hist    []atomic.Uint64 // per-bucket (non-cumulative) counts; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// With returns the series for the given label values, creating it on
// first use. The number of values must match the family's label names.
func (f *Family) With(values ...string) *Series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, seriesKeySep)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = &Series{fam: f, values: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.hist = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// Label-less convenience accessors on the family itself.

// Inc increments a label-less counter by one.
func (f *Family) Inc() { f.With().Inc() }

// Add adds delta to a label-less counter or gauge.
func (f *Family) Add(delta float64) { f.With().Add(delta) }

// Set sets a label-less gauge.
func (f *Family) Set(v float64) { f.With().Set(v) }

// Observe records one observation in a label-less histogram.
func (f *Family) Observe(v float64) { f.With().Observe(v) }

func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc increments a counter by one.
func (s *Series) Inc() { s.Add(1) }

// Add adds delta to a counter or gauge. Counters reject negative
// deltas.
func (s *Series) Add(delta float64) {
	switch s.fam.kind {
	case KindCounter:
		if delta < 0 {
			panic(fmt.Sprintf("obs: counter %s decremented by %g", s.fam.name, delta))
		}
	case KindGauge:
	default:
		panic(fmt.Sprintf("obs: Add on %v metric %s", s.fam.kind, s.fam.name))
	}
	addFloat(&s.bits, delta)
}

// Set sets a gauge to v.
func (s *Series) Set(v float64) {
	if s.fam.kind != KindGauge {
		panic(fmt.Sprintf("obs: Set on %v metric %s", s.fam.kind, s.fam.name))
	}
	s.bits.Store(math.Float64bits(v))
}

// Observe records one histogram observation. The observation lands in
// the first bucket whose upper bound is ≥ v, or the implicit +Inf
// bucket.
func (s *Series) Observe(v float64) {
	if s.fam.kind != KindHistogram {
		panic(fmt.Sprintf("obs: Observe on %v metric %s", s.fam.kind, s.fam.name))
	}
	i := sort.SearchFloat64s(s.fam.buckets, v)
	s.hist[i].Add(1)
	s.count.Add(1)
	addFloat(&s.sumBits, v)
}

// Value returns a counter's or gauge's current value (a computed
// gauge's read now), or a histogram's sum of observations.
func (s *Series) Value() float64 {
	if s.fam.read != nil {
		return s.fam.read()
	}
	if s.fam.kind == KindHistogram {
		return math.Float64frombits(s.sumBits.Load())
	}
	return math.Float64frombits(s.bits.Load())
}

// Count returns a histogram's observation count (zero for other kinds).
func (s *Series) Count() uint64 { return s.count.Load() }

// sortedFamilies returns the families ordered by name.
func (r *Registry) sortedFamilies() []*Family {
	r.mu.RLock()
	out := make([]*Family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries returns the family's series ordered by label values.
func (f *Family) sortedSeries() []*Series {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	out := make([]*Series, 0, len(keys))
	f.mu.RLock()
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.RUnlock()
	return out
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {a="x",b="y"}; extra appends one more pair (the
// histogram le label). Empty label sets render as "".
func (s *Series) labelString(extraName, extraValue string) string {
	if len(s.values) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range s.fam.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, name, escapeLabel(s.values[i]))
	}
	if extraName != "" {
		if len(s.values) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4). Families and series are emitted
// in sorted order, so the output is stable for a given state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sortedSeries() {
			switch f.kind {
			case KindCounter, KindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labelString("", ""), formatFloat(s.Value()))
			case KindHistogram:
				cum := uint64(0)
				for i, bound := range f.buckets {
					cum += s.hist[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, s.labelString("le", formatFloat(bound)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, s.labelString("le", "+Inf"), s.count.Load())
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labelString("", ""), formatFloat(s.Value()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labelString("", ""), s.count.Load())
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// FamilySnapshot is one family in a JSON snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Kind   string           `json:"kind"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one series in a JSON snapshot. For counters and
// gauges Value is the current value; for histograms Value is the sum
// of observations, Count the total observation count, and Buckets the
// cumulative counts for the finite upper bounds (the +Inf remainder is
// Count minus the last bucket).
type SeriesSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   uint64            `json:"count,omitempty"`
	Buckets []BucketCount     `json:"buckets,omitempty"`
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Snapshot captures the registry's current state in a stable (sorted)
// form suitable for JSON encoding.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.sortedFamilies()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Kind: f.kind.String(), Help: f.help,
			Series: []SeriesSnapshot{}}
		for _, s := range f.sortedSeries() {
			ss := SeriesSnapshot{Value: s.Value()}
			if len(s.values) > 0 {
				ss.Labels = make(map[string]string, len(s.values))
				for i, name := range f.labels {
					ss.Labels[name] = s.values[i]
				}
			}
			if f.kind == KindHistogram {
				ss.Count = s.count.Load()
				cum := uint64(0)
				ss.Buckets = make([]BucketCount, len(f.buckets))
				for i, bound := range f.buckets {
					cum += s.hist[i].Load()
					ss.Buckets[i] = BucketCount{LE: bound, Count: cum}
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// Snapshot is the combined JSON document a Recorder exports: the phase
// breakdown plus the metrics registry.
type Snapshot struct {
	Phases  []PhaseSnapshot  `json:"phases,omitempty"`
	Metrics []FamilySnapshot `json:"metrics"`
}

// Snapshot captures the recorder's phases and metrics.
func (r *Recorder) Snapshot() Snapshot {
	return Snapshot{Phases: r.Phases.Snapshot(), Metrics: r.Reg.Snapshot()}
}

// WriteJSON writes the recorder's combined snapshot as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
