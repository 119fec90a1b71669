package profile

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestAddPointAndInterval(t *testing.T) {
	a := NewAccumulator(Config{Buckets: 4, Width: 1})
	k := Key{Metric: "m", Metahost: 0, Rank: 0}
	a.Series(k).Add(0.5, 0, 2)    // bucket 0
	a.Series(k).Add(1.0, 2.0, 4)  // spread evenly over buckets 1 and 2
	a.Series(k).Add(3.25, 0.5, 1) // entirely inside bucket 3
	p := a.Snapshot("t")
	if len(p.Series) != 1 {
		t.Fatalf("series count %d", len(p.Series))
	}
	got := p.Series[0].Values
	want := []float64{2, 2, 2, 1}
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Errorf("bucket %d = %g, want %g (all: %v)", i, got[i], want[i], got)
		}
	}
	if p.Series[0].Count != 3 {
		t.Errorf("count %d, want 3", p.Series[0].Count)
	}
}

// TestOutsideAxisClampsOntoEdges: the axis never changes once the
// accumulator is built; a sample reaching past it keeps its whole value,
// cut at the edge and spread over the part that is on the axis.
func TestOutsideAxisClampsOntoEdges(t *testing.T) {
	a := NewAccumulator(Config{Buckets: 4, Width: 1, Origin: 10})
	k := Key{Metric: "m"}
	a.Series(k).Add(10, 4, 8)   // fills the axis evenly
	a.Series(k).Add(17, 0, 5)   // a point past the right edge
	a.Series(k).Add(13.5, 2, 6) // half on the axis, half past it
	a.Series(k).Add(20, 3, 1)   // an interval wholly past it
	a.Series(k).Add(8, 3, 3)    // begins before the origin
	a.Series(k).Add(2, 1, 7)    // wholly before it
	p := a.Snapshot("t")
	if p.BucketWidth != 1 || p.Origin != 10 || p.Buckets != 4 {
		t.Fatalf("axis moved: origin %g, width %g, %d buckets", p.Origin, p.BucketWidth, p.Buckets)
	}
	want := []float64{2 + 3 + 7, 2, 2, 2 + 5 + 6 + 1}
	got := p.Series[0].Values
	sum := 0.0
	for i := range want {
		sum += got[i]
		if !approx(got[i], want[i]) {
			t.Errorf("bucket %d = %g, want %g (all: %v)", i, got[i], want[i], got)
		}
	}
	if !approx(sum, 30) || p.Series[0].Count != 6 {
		t.Errorf("mass %g over %d samples, want 30 over 6", sum, p.Series[0].Count)
	}
}

func TestOrderIndependence(t *testing.T) {
	k := Key{Metric: "m"}
	mk := func(reverse bool) []float64 {
		a := NewAccumulator(Config{Buckets: 8, Width: 0.5})
		samples := [][3]float64{{0, 1, 1}, {9, 2, 3}, {2.5, 0, 0.25}, {1, 6, 2}}
		if reverse {
			for i := len(samples) - 1; i >= 0; i-- {
				s := samples[i]
				a.Series(k).Add(s[0], s[1], s[2])
			}
		} else {
			for _, s := range samples {
				a.Series(k).Add(s[0], s[1], s[2])
			}
		}
		return a.Snapshot("t").Series[0].Values
	}
	fwd, rev := mk(false), mk(true)
	for i := range fwd {
		if !approx(fwd[i], rev[i]) {
			t.Fatalf("order dependent at bucket %d: %g vs %g", i, fwd[i], rev[i])
		}
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	mk := func() *bytes.Buffer {
		a := NewAccumulator(Config{Buckets: 8, Width: 0.25, Origin: 1})
		a.SetMeta("x", SeriesMeta{Name: "X", Unit: "sec"})
		a.Series(Key{Metric: "x", Metahost: 1, Rank: 3}).Add(1.1, 0.7, 0.123456789)
		a.Series(Key{Metric: "a", Metahost: 0, Rank: 0}).Add(2, 0, 1)
		var buf bytes.Buffer
		if err := a.Snapshot("t").WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(mk().Bytes(), mk().Bytes()) {
		t.Fatal("snapshot JSON not byte-identical across identical runs")
	}
	// Sorted series order: "a" before "x".
	var p *Profile
	p, err := Read(bytes.NewReader(mk().Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Series[0].Metric != "a" || p.Series[1].Metric != "x" {
		t.Errorf("series not sorted: %+v", p.Series)
	}
	if p.Series[1].Name != "X" {
		t.Errorf("meta not applied: %+v", p.Series[1])
	}
}

func TestReadRoundTrip(t *testing.T) {
	a := NewAccumulator(Config{Buckets: 4, Width: 1})
	a.Series(Key{Metric: "m", Metahost: 2, Rank: 5}).Add(1, 2, 3)
	p := a.Snapshot("round")
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Title != "round" || len(back.Series) != 1 || back.Series[0].Rank != 5 {
		t.Fatalf("round trip mangled: %+v", back)
	}
}

func TestWriteCSV(t *testing.T) {
	a := NewAccumulator(Config{Buckets: 2, Width: 1})
	a.SetMetahostName(0, "FH,BRS")
	a.Series(Key{Metric: "m", Metahost: 0, Rank: 1}).Add(0, 0, 2.5)
	var buf bytes.Buffer
	if err := a.Snapshot("t").WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"bucket_width_seconds=1", "metric,metahost,metahost_name,rank,count,b0,b1", `"FH,BRS"`, "m,0,"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestByMetahostAggregatesRanks(t *testing.T) {
	a := NewAccumulator(Config{Buckets: 2, Width: 1})
	a.SetMetahostName(1, "CAESAR")
	a.Series(Key{Metric: "m", Metahost: 1, Rank: 0}).Add(0, 0, 1)
	a.Series(Key{Metric: "m", Metahost: 1, Rank: 1}).Add(0, 0, 2)
	a.Series(Key{Metric: "m", Metahost: 0, Rank: 2}).Add(1, 0, 4)
	rows := a.Snapshot("t").ByMetahost("m")
	if len(rows) != 2 || rows[0].Metahost != 0 || rows[1].Metahost != 1 {
		t.Fatalf("rows %+v", rows)
	}
	if !approx(rows[1].Values[0], 3) || !approx(rows[0].Values[1], 4) {
		t.Errorf("aggregation wrong: %+v", rows)
	}
	if rows[1].Name != "CAESAR" {
		t.Errorf("name missing: %+v", rows[1])
	}
}

// TestDiffOneAxis: profiles on one axis subtract bucket by bucket, a
// series on one side only against zero; any other pair of axes is
// refused at once, the error naming both.
func TestDiffOneAxis(t *testing.T) {
	mk := func(metric string, v float64) *Profile {
		a := NewAccumulator(Config{Buckets: 4, Width: 1})
		a.Series(Key{Metric: metric}).Add(0, 0, v)
		return a.Snapshot("p")
	}
	a := mk("m", 5)
	d, err := Diff(a, mk("m", 3))
	if err != nil {
		t.Fatal(err)
	}
	if d.BucketWidth != 1 || len(d.Series) != 1 || !approx(d.Series[0].Values[0], 2) {
		t.Fatalf("diff %+v", d)
	}
	d2, err := Diff(a, mk("other", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Series) != 2 {
		t.Fatalf("union series %d, want 2", len(d2.Series))
	}
	for _, s := range d2.Series {
		switch s.Metric {
		case "m":
			if !approx(s.Values[0], 5) {
				t.Errorf("m diff %v", s.Values)
			}
		case "other":
			if !approx(s.Values[0], -1) {
				t.Errorf("other diff %v", s.Values)
			}
		}
	}

	for _, bad := range []*Profile{
		{Buckets: 8, BucketWidth: 1},
		{Buckets: 4, BucketWidth: 2},
		{Buckets: 4, BucketWidth: 1, Origin: 1e-300},
	} {
		if _, err := Diff(a, bad); err == nil || !strings.Contains(err.Error(), "time axes differ") {
			t.Errorf("axis %d×%g@%g: err %v, want the axes error", bad.Buckets, bad.BucketWidth, bad.Origin, err)
		}
	}

	// Widths 0 and 1: no power of two of 0 reaches 1, so an alignment
	// loop never ends. Refusing takes no time.
	zero, one := &Profile{Buckets: 1}, &Profile{Buckets: 1, BucketWidth: 1}
	done := make(chan error, 1)
	go func() {
		_, err := Diff(zero, one)
		done <- err
	}()
	select {
	case err := <-done:
		want := "profile: time axes differ (1 buckets of 0s from 0s vs 1 buckets of 1s from 0s)"
		if err == nil || err.Error() != want {
			t.Fatalf("widths 0 and 1: err %v, want %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Diff of widths 0 and 1 still running after 5 s")
	}
}

// TestReadRefusesBucketsOverMax: a bucket count is bounded before
// anything is sized by it.
func TestReadRefusesBucketsOverMax(t *testing.T) {
	for _, n := range []int{MaxBuckets + 1, 4e12} {
		_, err := Read(strings.NewReader(fmt.Sprintf(`{"origin":0,"bucket_width":1,"buckets":%d,"series":[]}`, n)))
		if err == nil || !strings.Contains(err.Error(), "limit 65536") {
			t.Errorf("buckets=%d: err %v, want the limit refusal", n, err)
		}
	}
	p, err := Read(strings.NewReader(fmt.Sprintf(`{"origin":0,"bucket_width":1,"buckets":%d,"series":[]}`, MaxBuckets)))
	if err != nil || p.Buckets != MaxBuckets {
		t.Errorf("buckets=MaxBuckets: %v, %v", p, err)
	}
}
