package profile

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// mallocs returns the fewest heap objects one of three runs of f
// allocated, each run on a fresh input from setup.
func mallocs[T any](setup func() T, f func(T)) uint64 {
	best := ^uint64(0)
	for range 3 {
		in := setup()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f(in)
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// filled returns an accumulator of n series on 64 buckets, each with
// one sample.
func filled(n int) *Accumulator {
	a := NewAccumulator(Config{Buckets: 64, Width: 1})
	for i := range n {
		a.Series(Key{Metric: fmt.Sprintf("m%d", i%7), Metahost: i % 3, Rank: i}).Add(float64(i%64), 2, 1)
	}
	return a
}

// TestSnapshotAllocsFlatInSeries: the artifact takes the series' sums
// over, so what Snapshot allocates does not grow with the series count —
// here, from 100 to 400 series.
func TestSnapshotAllocsFlatInSeries(t *testing.T) {
	snap := func(a *Accumulator) { a.Snapshot("t") }
	small := mallocs(func() *Accumulator { return filled(100) }, snap)
	large := mallocs(func() *Accumulator { return filled(400) }, snap)
	if large > small {
		t.Errorf("Snapshot allocated %d objects over 100 series and %d over 400", small, large)
	}
}

// TestSnapshotSpendsAccumulator: the artifact's values are the
// accumulator's own sums, and the accumulator refuses to be used again —
// a later Series or Snapshot would alias or lose the artifact's values.
func TestSnapshotSpendsAccumulator(t *testing.T) {
	a := NewAccumulator(Config{Buckets: 4, Width: 1})
	h := a.Series(Key{Metric: "m"})
	h.Add(1, 0, 3)
	p := a.Snapshot("t")
	if &p.Series[0].Values[0] != &h.s.sums[0] || p.Series[0].Values[1] != 3 {
		t.Fatalf("the artifact's values are not the series' sums: %v", p.Series[0].Values)
	}
	if cap(p.Series[0].Values) != 4 {
		t.Errorf("values capacity %d, want 4: an append would write into the next series", cap(p.Series[0].Values))
	}
	for name, use := range map[string]func(){
		"Series":   func() { a.Series(Key{Metric: "n"}) },
		"Snapshot": func() { a.Snapshot("again") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a spent accumulator did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestDiffAndByMetahostSizeRowsByValues: a row of Diff or ByMetahost is
// as long as the longest series it sums, not the declared bucket count.
// Two profiles declaring MaxBuckets whose series carry no values cost a
// few bytes each, not 512 KiB per row.
func TestDiffAndByMetahostSizeRowsByValues(t *testing.T) {
	const n = 16
	hostile := func() *Profile {
		var b strings.Builder
		fmt.Fprintf(&b, `{"origin":0,"bucket_width":1,"buckets":%d,"series":[`, MaxBuckets)
		for i := range n {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"metric":"m","metahost":%d,"rank":%d,"count":1,"values":null}`, i, i)
		}
		b.WriteString(`]}`)
		p, err := Read(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := hostile(), hostile()
	b.Series[0].Values = []float64{1, 2}
	var d *Profile
	if got := allocatedBytes(func() {
		var err error
		if d, err = Diff(a, b); err != nil {
			t.Fatal(err)
		}
	}); got > 64<<10 {
		t.Errorf("Diff of %d value-less series pairs allocated %d bytes, want at most 64 KiB", n, got)
	}
	if len(d.Series) != n || len(d.Series[0].Values) != 2 || d.Series[0].Values[1] != -2 || len(d.Series[1].Values) != 0 {
		t.Errorf("diff: %d rows, the first two of %d and %d values", len(d.Series), len(d.Series[0].Values), len(d.Series[1].Values))
	}
	var rows []MetahostRow
	if got := allocatedBytes(func() { rows = b.ByMetahost("m") }); got > 64<<10 {
		t.Errorf("ByMetahost of %d value-less series allocated %d bytes, want at most 64 KiB", n, got)
	}
	if len(rows) != n || len(rows[0].Values) != 2 || rows[0].Values[1] != 2 || len(rows[1].Values) != 0 {
		t.Errorf("ByMetahost: %d rows, the first two of %d and %d values", len(rows), len(rows[0].Values), len(rows[1].Values))
	}
}

// allocatedBytes returns the bytes f allocated.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
