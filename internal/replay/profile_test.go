package replay

import (
	"bytes"
	"math"
	"testing"

	"metascope/internal/pattern"
	"metascope/internal/profile"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// profSum totals one metric's profile series, optionally restricted to
// a single rank (rank < 0 sums all ranks).
func profSum(p *profile.Profile, metric string, rank int) float64 {
	sum := 0.0
	for _, s := range p.Series {
		if s.Metric != metric || (rank >= 0 && s.Rank != rank) {
			continue
		}
		for _, v := range s.Values {
			sum += v
		}
	}
	return sum
}

func TestProfileLateSenderSeries(t *testing.T) {
	// Same scenario as TestLateSenderDetection: rank 1 idles in its
	// receive from t=1 until rank 0 enters the send at t=4. The profile
	// must carry that waiting time as an interval [1, 4] on rank 1.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(4, 1), send(4, 1, 7, 100), exit(4.5, 1),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(1, 2), recv(5, 0, 7, 100), exit(5, 2),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	p := res.Profile
	if p.Empty() {
		t.Fatal("profile empty")
	}
	if got := profSum(p, pattern.KeyLateSender, 1); math.Abs(got-3) > 1e-9 {
		t.Errorf("late-sender profile mass = %g, want 3", got)
	}
	// The wait lies in [1, 4]: no mass may land in buckets past t=4.
	for _, s := range p.Series {
		if s.Metric != pattern.KeyLateSender {
			continue
		}
		for i, v := range s.Values {
			if right := p.Origin + float64(i+1)*p.BucketWidth; p.Origin+float64(i)*p.BucketWidth >= 4 && v != 0 {
				t.Errorf("mass %g in bucket %d [%g, %g) past the wait interval", v, i, right-p.BucketWidth, right)
			}
		}
		if s.Name == "" || s.Unit != "sec" {
			t.Errorf("series meta missing: %+v", s)
		}
		if s.MetahostName != "A" {
			t.Errorf("metahost name %q, want A", s.MetahostName)
		}
	}
	// The report must be able to carry the profile to the HTML renderer.
	if res.Report.Profile != p {
		t.Error("report does not carry the profile")
	}
}

func TestProfileVolumeSplit(t *testing.T) {
	// Rank 0 (metahost A) sends 100 bytes to rank 1 (also A) and 300
	// bytes to rank 2 (metahost B): 100 intra, 300 wide, both recorded
	// at the sender.
	comm := trace.CommDef{ID: 0, Ranks: []int32{0, 1, 2}}
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(1, 1), send(1, 1, 5, 100), exit(1.5, 1),
		enter(2, 1), send(2, 2, 6, 300), exit(2.5, 1),
		exit(10, 0),
	}, comm)
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(1, 2), recv(1.6, 0, 5, 100), exit(1.7, 2),
		exit(10, 0),
	}, comm)
	t2 := synth(2, 1, []trace.Event{
		enter(0, 0),
		enter(2, 2), recv(2.6, 0, 6, 300), exit(2.7, 2),
		exit(10, 0),
	}, comm)
	res := analyze(t, []*trace.Trace{t0, t1, t2})
	p := res.Profile
	if got := profSum(p, profile.KeyBytesIntra, 0); got != 100 {
		t.Errorf("intra volume = %g, want 100", got)
	}
	if got := profSum(p, profile.KeyBytesWide, 0); got != 300 {
		t.Errorf("wide volume = %g, want 300", got)
	}
	// Receivers send nothing: no volume series on ranks 1 and 2.
	if got := profSum(p, profile.KeyBytesIntra, 1) + profSum(p, profile.KeyBytesWide, 2); got != 0 {
		t.Errorf("volume attributed to receivers: %g", got)
	}
}

func TestProfileCollectiveWaitMass(t *testing.T) {
	// Wait at Barrier: ranks enter at 1, 2, 3 and leave together; each
	// rank's waiting time is (latest enter − own enter). Profile mass
	// per rank must match the report severities.
	comm := trace.CommDef{ID: 0, Ranks: []int32{0, 1, 2}}
	mk := func(rank, mh int, at float64) *trace.Trace {
		return synth(rank, mh, []trace.Event{
			enter(0, 0),
			enter(at, 3), collExit(4, trace.CollBarrier, -1), exit(4, 3),
			exit(5, 0),
		}, comm)
	}
	res := analyze(t, []*trace.Trace{mk(0, 0, 1), mk(1, 0, 2), mk(2, 0, 3)})
	for rank, want := range []float64{2, 1, 0} {
		got := profSum(res.Profile, pattern.KeyWaitBarrier, rank)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("rank %d barrier wait profile mass = %g, want %g", rank, got, want)
		}
	}
}

func TestProfileDeterministicAcrossRuns(t *testing.T) {
	// Byte-identical JSON across two full Analyze runs of the same
	// input, exercising p2p waits, collective waits, and both volume
	// series across two metahosts.
	mk := func() []*trace.Trace {
		comm := trace.CommDef{ID: 0, Ranks: []int32{0, 1, 2, 3}}
		t0 := synth(0, 0, []trace.Event{
			enter(0, 0),
			enter(4, 1), send(4, 3, 7, 4096), exit(4.5, 1),
			enter(5, 3), collExit(7, trace.CollBarrier, -1), exit(7, 3),
			exit(10, 0),
		}, comm)
		t1 := synth(1, 0, []trace.Event{
			enter(0, 0),
			enter(1, 1), send(1, 2, 9, 64), exit(1.2, 1),
			enter(6, 3), collExit(7, trace.CollBarrier, -1), exit(7, 3),
			exit(10, 0),
		}, comm)
		t2 := synth(2, 1, []trace.Event{
			enter(0, 0),
			enter(2, 2), recv(2.5, 1, 9, 64), exit(2.6, 2),
			enter(3, 3), collExit(7, trace.CollBarrier, -1), exit(7, 3),
			exit(10, 0),
		}, comm)
		t3 := synth(3, 1, []trace.Event{
			enter(0, 0),
			enter(1, 2), recv(4.8, 0, 7, 4096), exit(4.9, 2),
			enter(6.5, 3), collExit(7, trace.CollBarrier, -1), exit(7, 3),
			exit(10, 0),
		}, comm)
		return []*trace.Trace{t0, t1, t2, t3}
	}
	run := func() []byte {
		res := analyze(t, mk())
		var buf bytes.Buffer
		if err := res.Profile.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if next := run(); !bytes.Equal(first, next) {
			t.Fatalf("profile JSON differs between runs (run %d)", i+1)
		}
	}
}

// TestProfileAxisCoversRepairShift: a repair shift far past the axis'
// 6.25 % headroom moves the axis end out by the shift, so the width is
// (span + shift) × 1.0625 / buckets and the profile keeps exactly the
// cube's mass.
func TestProfileAxisCoversRepairShift(t *testing.T) {
	// Rank 1's receive is recorded at 2, six seconds before its send:
	// the repair shifts rank 1's remaining events, its end included,
	// from 10 to 16. Its reply, sent at 9 (15 shifted), then makes rank
	// 0 wait from 9.5 to 15 and shifts rank 0's end to 15.4 — samples
	// far past the unshifted span's axis.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(8, 1), send(8, 1, 7, 100), exit(8.5, 1),
		enter(9.5, 2), recv(9.6, 1, 8, 100), exit(9.7, 2),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(1, 2), recv(2, 0, 7, 100), exit(2.1, 2),
		enter(9, 1), send(9, 0, 8, 100), exit(9.1, 1),
		exit(10, 0),
	})
	res, err := Analyze([]*trace.Trace{t0, t1}, Config{Scheme: vclock.FlatSingle, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repairs != 2 {
		t.Fatalf("repairs = %d, want 2", res.Repairs)
	}
	p := res.Profile
	span, shift := 10.0, 8+repairMu-2
	want := (span + shift) * 1.0625 / profile.DefaultBuckets
	if p.Origin != 0 || p.Buckets != profile.DefaultBuckets || math.Abs(p.BucketWidth-want) > 1e-12*want {
		t.Fatalf("axis: %d buckets of %g from %g, want %d of %g from 0",
			p.Buckets, p.BucketWidth, p.Origin, profile.DefaultBuckets, want)
	}
	r := res.Report
	checked := 0
	for _, key := range p.Metrics() {
		m := r.MetricIndex(key)
		if m < 0 {
			continue // a message-volume series; the cube has no such metric
		}
		cube := 0.0
		for c := range r.Calls {
			for l := range r.Locs {
				cube += r.Value(m, c, l)
			}
		}
		if got := p.SeriesTotal(key, -1); math.Abs(got-cube) > 1e-12*math.Abs(cube) {
			t.Errorf("%s: profile total %.17g, cube %.17g", key, got, cube)
		}
		checked++
	}
	if ls0, ls1 := p.SeriesTotal(pattern.KeyLateSender, 0), p.SeriesTotal(pattern.KeyLateSender, 1); checked == 0 || math.Abs(ls0-5.5) > 1e-6 || math.Abs(ls1-7) > 1e-6 {
		t.Fatalf("%d series checked; late sender %g at rank 0 and %g at rank 1, want 5.5 and 7", checked, ls0, ls1)
	}
}

// TestProfileBucketsBounded: an analysis asking for more buckets than
// profile.MaxBuckets is refused before any trace is read, post-mortem
// and live.
func TestProfileBucketsBounded(t *testing.T) {
	traces := []*trace.Trace{
		synth(0, 0, []trace.Event{enter(0, 0), exit(1, 0)}),
		synth(1, 0, []trace.Event{enter(0, 0), exit(1, 0)}),
	}
	over := Config{Scheme: vclock.Hierarchical, ProfileBuckets: profile.MaxBuckets + 1}
	want := "replay: profile bucket count 65537 is above the limit of 65536"
	if _, err := Analyze(traces, over); err == nil || err.Error() != want {
		t.Errorf("Analyze: err %v, want %q", err, want)
	}
	if _, err := NewLive(LiveConfig{Config: over, Ranks: 2}); err == nil || err.Error() != want {
		t.Errorf("NewLive: err %v, want %q", err, want)
	}
	res, err := Analyze(traces, Config{Scheme: vclock.Hierarchical, ProfileBuckets: profile.MaxBuckets})
	if err != nil || res.Profile.Buckets != profile.MaxBuckets {
		t.Fatalf("MaxBuckets refused: %v", err)
	}
}
