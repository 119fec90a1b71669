package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"
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

func TestWidthDoublingPreservesMass(t *testing.T) {
	a := NewAccumulator(Config{Buckets: 4, Width: 1})
	k := Key{Metric: "m"}
	a.Series(k).Add(0, 4, 8)  // fills the initial range evenly
	a.Series(k).Add(13, 0, 5) // forces width 1 → 4 (range 16)
	p := a.Snapshot("t")
	if p.BucketWidth != 4 {
		t.Fatalf("width %g, want 4", p.BucketWidth)
	}
	vals := p.Series[0].Values
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if !approx(sum, 13) {
		t.Errorf("mass not preserved: %g, want 13 (%v)", sum, vals)
	}
	// The first sample's mass all folds into bucket 0 of width 4.
	if !approx(vals[0], 8) || !approx(vals[3], 5) {
		t.Errorf("fold misplaced mass: %v", vals)
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

func TestDiffAlignsWidths(t *testing.T) {
	mk := func(width float64, v float64) *Profile {
		a := NewAccumulator(Config{Buckets: 4, Width: width})
		a.Series(Key{Metric: "m"}).Add(0, 0, v)
		return a.Snapshot("p")
	}
	a := mk(1, 5)
	b := mk(2, 3) // coarser by one fold
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.BucketWidth != 2 {
		t.Fatalf("diff width %g", d.BucketWidth)
	}
	if !approx(d.Series[0].Values[0], 2) {
		t.Errorf("diff values %v", d.Series[0].Values)
	}
	// One-sided series diff against zero.
	b2 := mk(1, 1)
	b2.Series[0].Metric = "other"
	d2, err := Diff(a, b2)
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
	// Mismatched bucket counts are rejected.
	bad := &Profile{Buckets: 8, BucketWidth: 1}
	if _, err := Diff(a, bad); err == nil {
		t.Error("bucket-count mismatch not rejected")
	}
}
