package conformance

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"metascope/internal/archive"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// noPanic fails the test (instead of crashing the process) if the
// pipeline panics on a damaged archive. A panic is never an acceptable
// response to bad input: the corpus contract is structured error or
// flagged degradation.
func noPanic(t *testing.T, stage string) {
	t.Helper()
	if r := recover(); r != nil {
		t.Fatalf("%s panicked on fault input: %v", stage, r)
	}
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("fault accepted: want error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("fault produced %q, want substring %q", err, substr)
	}
}

// TestFaultCorpus drives one damaged archive per case through the real
// loader and analyzer. Every case must surface as a structured error
// naming the problem — never a panic, never a clean result.
func TestFaultCorpus(t *testing.T) {
	cases := []struct {
		name string
		// mutate damages the fixture's archive.
		mutate func(t *testing.T, f *Fixture)
		// analyze selects the stage: false checks LoadArchive, true
		// checks the full analysis (loader faults surface there too, but
		// event-level faults only exist past decoding).
		analyze bool
		wantErr string
	}{
		{
			name: "truncated-trace",
			mutate: func(t *testing.T, f *Fixture) {
				mutateRaw(t, f, 0, func(b []byte) []byte { return b[:len(b)/2] })
			},
			wantErr: "decoding",
		},
		{
			name: "corrupt-header",
			mutate: func(t *testing.T, f *Fixture) {
				mutateRaw(t, f, 0, func(b []byte) []byte {
					b[0] ^= 0xFF
					return b
				})
			},
			wantErr: "decoding",
		},
		{
			name: "missing-rank-breaks-density",
			mutate: func(t *testing.T, f *Fixture) {
				if err := f.RemoveTrace(0); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "outside dense range",
		},
		{
			// Removing the highest rank leaves a dense, loadable rank set
			// — the archive lies about its own size. The analyzer must
			// notice that surviving communicator definitions reference
			// ranks it holds no traces for.
			name: "missing-tail-rank",
			mutate: func(t *testing.T, f *Fixture) {
				if err := f.RemoveTrace(1); err != nil {
					t.Fatal(err)
				}
			},
			analyze: true,
			wantErr: "incomplete archive",
		},
		{
			name: "duplicate-rank",
			mutate: func(t *testing.T, f *Fixture) {
				b, err := f.ReadRaw(1)
				if err != nil {
					t.Fatal(err)
				}
				if err := writeFile(f.FSFor(0), f.TracePath(1), b); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "duplicate trace for rank 1",
		},
		{
			name: "misnamed-trace",
			mutate: func(t *testing.T, f *Fixture) {
				b, err := f.ReadRaw(0)
				if err != nil {
					t.Fatal(err)
				}
				if err := writeFile(f.FSFor(0), archive.TraceFile(f.Dir, 2), b); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "contains trace of rank",
		},
		{
			name: "non-monotonic-timestamps",
			mutate: func(t *testing.T, f *Fixture) {
				mutateTrace(t, f, 0, func(tr *trace.Trace) {
					for i := 0; i+1 < len(tr.Events); i++ {
						if tr.Events[i].Time < tr.Events[i+1].Time {
							tr.Events[i].Time, tr.Events[i+1].Time =
								tr.Events[i+1].Time, tr.Events[i].Time
							return
						}
					}
					t.Fatal("no strictly increasing event pair to swap")
				})
			},
			analyze: true,
			wantErr: "before predecessor",
		},
		{
			name: "unbalanced-regions",
			mutate: func(t *testing.T, f *Fixture) {
				mutateTrace(t, f, 0, func(tr *trace.Trace) {
					for i := len(tr.Events) - 1; i >= 0; i-- {
						if tr.Events[i].Kind == trace.KindExit {
							tr.Events = append(tr.Events[:i], tr.Events[i+1:]...)
							return
						}
					}
					t.Fatal("trace holds no exit event")
				})
			},
			analyze: true,
			wantErr: "unclosed region",
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			f, err := NewFixture(1)
			if err != nil {
				t.Fatal(err)
			}
			c.mutate(t, f)
			if c.analyze {
				defer noPanic(t, "Analyze")
				_, err := f.Analyze()
				wantErr(t, err, c.wantErr)
				return
			}
			defer noPanic(t, "LoadArchive")
			_, err = f.Load()
			wantErr(t, err, c.wantErr)
		})
	}
}

// TestFaultNonFiniteTime: both trace formats carry raw float64 bits, and
// a NaN passes every order comparison while an infinity is in order
// after anything — so a non-finite time stamp is refused by name, at the
// event that carries it, with the same words whoever reads the trace: the
// one-shot decode of a v1 file, the eager load of a v1 or a v2 file, the
// lazy sweep, a live session's PUT.
func TestFaultNonFiniteTime(t *testing.T) {
	t.Parallel()
	for name, bad := range map[string]float64{"nan-time": math.NaN(), "inf-time": math.Inf(1)} {
		t.Run(name, func(t *testing.T) {
			f, err := NewFixture(1)
			if err != nil {
				t.Fatal(err)
			}
			// The last two events, so the stamps before them stay ordered.
			var want string
			var mutated *trace.Trace
			mutateTrace(t, f, 0, func(tr *trace.Trace) {
				n := len(tr.Events)
				tr.Events[n-2].Time, tr.Events[n-1].Time = bad, bad
				want = fmt.Sprintf("trace %v: event %d has non-finite time %g", tr.Loc, n-2, bad)
				mutated = tr
			})
			defer noPanic(t, name)
			refused := func(feeder string, err error) {
				t.Helper()
				if err == nil || !strings.HasSuffix(err.Error(), want) {
					t.Errorf("%s: err = %v, want it to end in %q", feeder, err, want)
				}
			}
			_, err = f.Analyze() // MutateTrace writes v1
			refused("eager v1", err)

			blobs := make([][]byte, f.Exp.Place.N())
			for r := range blobs {
				raw, err := f.ReadRaw(r)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := trace.DecodeBytes(raw)
				if r == 0 {
					refused("decode v1", err)
					tr = mutated
				} else if err != nil {
					t.Fatal(err)
				}
				blobs[r] = encodeRanks(t, []*trace.Trace{tr})[0]
				if err := f.WriteRaw(r, blobs[r]); err != nil {
					t.Fatal(err)
				}
			}
			_, err = f.Analyze()
			refused("eager v2", err)

			cfg := replay.Config{Scheme: vclock.Hierarchical}
			ar, err := f.Exp.TracesLazy()
			if err != nil {
				t.Fatalf("the lazy loader reads headers only: %v", err)
			}
			_, err = replay.AnalyzeLazy(ar, cfg)
			refused("lazy", err)

			l, err := replay.NewLive(replay.LiveConfig{Config: cfg, Ranks: len(blobs)})
			if err != nil {
				t.Fatal(err)
			}
			var ferr error
			for r, b := range blobs {
				if err := l.FeedChunk(r, b); err != nil && ferr == nil {
					ferr = err
				}
			}
			_, err = l.Finalize(context.Background())
			refused("live PUT", ferr)
			refused("live finalize", err)
		})
	}
}

// TestFaultNonlinearClock: a clock drifting outside the linear model is
// undetectable at load time (the trace stays well-formed) and must
// surface as flagged degradation — clock-condition violations — not as
// a silently wrong cube presented with full confidence.
func TestFaultNonlinearClock(t *testing.T) {
	t.Parallel()
	f, err := NewFixture(1)
	if err != nil {
		t.Fatal(err)
	}
	// Warp the *receiver's* clock: bending timestamps backwards pulls
	// its receive-completion events earlier than the (unwarped) sends
	// that caused them, which is exactly the clock-condition breach the
	// analyzer repairs and counts. The coefficient keeps the map
	// monotone over the event span but produces millisecond-scale skew,
	// far beyond the link latency.
	mutateTrace(t, f, 1, func(tr *trace.Trace) { WarpEvents(tr, 0.2) })
	defer noPanic(t, "Analyze")
	res, err := f.Analyze()
	if err != nil {
		t.Fatalf("warped clock must degrade, not fail: %v", err)
	}
	if res.Violations == 0 {
		t.Error("nonlinear clock produced zero violations: degradation went unflagged")
	}
}

// TestFaultForeignFile: unrelated files in the archive directory are
// not faults. The loader must skip them and produce the exact result of
// the pristine archive.
func TestFaultForeignFile(t *testing.T) {
	t.Parallel()
	pristine, err := NewFixture(1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := pristine.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFixture(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(f.FSFor(0), f.Dir+"/notes.txt", []byte("operator scribbles\n")); err != nil {
		t.Fatal(err)
	}
	defer noPanic(t, "Analyze")
	res, err := f.Analyze()
	if err != nil {
		t.Fatalf("foreign file broke the load: %v", err)
	}
	s := FaultScenario()
	for r := 0; r < s.N(); r++ {
		for _, key := range pattern.WaitStateKeys() {
			if got, want := res.Report.RankMetricTotal(key, r), base.Report.RankMetricTotal(key, r); got != want {
				t.Errorf("rank %d %s: %g with foreign file, %g without", r, key, got, want)
			}
		}
	}
}

// TestFaultEmptyArchive: a directory with no trace files is a distinct,
// named error.
func TestFaultEmptyArchive(t *testing.T) {
	t.Parallel()
	fs := archive.NewMemFS("empty")
	if err := fs.Mkdir("epik_empty"); err != nil {
		t.Fatal(err)
	}
	mounts := archive.NewMounts()
	mounts.Mount(0, fs)
	defer noPanic(t, "LoadArchive")
	_, err := replay.LoadArchive(mounts, []int{0}, "epik_empty")
	wantErr(t, err, "contains no trace files")
}

// TestFaultArchiveCreationDenied: when the global master cannot create
// the archive directory, the whole run aborts with a structured archive
// error on every rank instead of measuring into nowhere.
func TestFaultArchiveCreationDenied(t *testing.T) {
	t.Parallel()
	s := FaultScenario()
	e, err := s.NewExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	e.Mounts().For(e.Place.Loc(0).Metahost).(*archive.MemFS).FailMkdir = true
	defer noPanic(t, "Run")
	err = e.Run(s.Body)
	wantErr(t, err, "archive")
}

// TestFaultSchemes runs one loader fault under every synchronization
// scheme: fault handling must not depend on the correction model.
func TestFaultSchemes(t *testing.T) {
	t.Parallel()
	for _, sch := range []vclock.Scheme{vclock.FlatSingle, vclock.FlatInterp, vclock.Hierarchical} {
		f, err := NewFixture(1)
		if err != nil {
			t.Fatal(err)
		}
		mutateRaw(t, f, 0, func(b []byte) []byte { return b[:len(b)/3] })
		defer noPanic(t, "Analyze")
		_, err = f.Exp.Analyze(sch)
		wantErr(t, err, "decoding")
	}
}

func mutateRaw(t *testing.T, f *Fixture, rank int, fn func([]byte) []byte) {
	t.Helper()
	if err := f.MutateRaw(rank, fn); err != nil {
		t.Fatal(err)
	}
}

func mutateTrace(t *testing.T, f *Fixture, rank int, fn func(*trace.Trace)) {
	t.Helper()
	if err := f.MutateTrace(rank, fn); err != nil {
		t.Fatal(err)
	}
}
