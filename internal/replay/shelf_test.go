package replay

import (
	"bytes"
	"context"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"metascope/internal/obs"
	"metascope/internal/phase"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// shelfPath analyses rank images one way. prepare builds the input on
// the test's goroutine; the analysis it returns may run on any other, and
// reports a failure in the outcome.
type shelfPath struct {
	name    string
	prepare func(t *testing.T, images [][]byte) func(cfg Config) feedOutcome
}

var shelfPaths = []shelfPath{
	{"eager", func(t *testing.T, images [][]byte) func(Config) feedOutcome {
		traces := make([]*trace.Trace, len(images))
		for r, img := range images {
			tr, err := trace.DecodeBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			traces[r] = tr
		}
		return func(cfg Config) feedOutcome { return outcomeOf(Analyze(traces, cfg)) }
	}},
	{"lazy", func(t *testing.T, images [][]byte) func(Config) feedOutcome {
		mounts, dir := feedersArchive(t, images)
		return func(cfg Config) feedOutcome {
			ar, err := LoadArchiveLazyCtx(context.Background(), mounts, []int{0}, dir, obs.NewRecorder())
			if err != nil {
				return feedOutcome{err: err}
			}
			return outcomeOf(AnalyzeLazy(ar, cfg))
		}
	}},
	{"live", func(t *testing.T, images [][]byte) func(Config) feedOutcome {
		return func(cfg Config) feedOutcome {
			l, err := NewLive(LiveConfig{Config: cfg, Ranks: len(images)})
			for r, img := range images {
				for off := 0; err == nil && off < len(img); off += 512 {
					err = l.FeedChunk(r, img[off:min(off+512, len(img))])
				}
			}
			if err != nil {
				return feedOutcome{err: err}
			}
			return outcomeOf(l.Finalize(context.Background()))
		}
	}},
}

var ledgerLine = regexp.MustCompile(`msg="ledger folded" .* ledger_bytes=(\d+) reused_bytes=(\d+)`)

// analyzeLogged runs p on images and returns the artifacts and the
// ledger's bytes, held and reused. What the shelves hold after it is that
// ledger, and no other: a finished analysis leaves one idle ledger.
func analyzeLogged(t *testing.T, p shelfPath, images [][]byte) (out feedOutcome, held, reused int) {
	t.Helper()
	rec, logged := abortRecorder()
	rec.Log.SetLevel(obs.LevelDebug)
	out = p.prepare(t, images)(Config{Scheme: vclock.Hierarchical, Title: "shelf", Obs: rec})
	if out.err != nil {
		t.Fatalf("%s: %v", p.name, out.err)
	}
	m := ledgerLine.FindStringSubmatch(logged.String())
	if m == nil {
		t.Fatalf("%s: no ledger line in %q", p.name, logged.String())
	}
	held, _ = strconv.Atoi(m[1])
	reused, _ = strconv.Atoi(m[2])
	if st := shelved(); st.bytes != held {
		t.Errorf("%s: the shelves hold %d bytes after an analysis whose ledger held %d", p.name, st.bytes, held)
	}
	t.Logf("%s: ledger of %d bytes, %d of them reused", p.name, held, reused)
	return out, held, reused
}

// emptyShelves drops every shelved page, as in a process that has
// finished no analysis yet: a shelving of no ledger.
func emptyShelves() {
	shelve[recvInfo](nil, nil)
	shelve[profSample](nil, nil)
	shelve[phase.Op](nil, nil)
}

// shelfState is what the three shelves hold: every page, by the address
// of its array and its capacity, and their bytes.
type shelfState struct {
	pages map[unsafe.Pointer]int
	bytes int
}

func shelved() shelfState {
	st := shelfState{pages: map[unsafe.Pointer]int{}}
	shelvedOn(shelfOf[recvInfo](), &st)
	shelvedOn(shelfOf[profSample](), &st)
	shelvedOn(shelfOf[phase.Op](), &st)
	return st
}

func shelvedOn[T any](s *shelf[T], st *shelfState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, class := range s.class {
		for _, pg := range class {
			st.pages[unsafe.Pointer(unsafe.SliceData(pg))] = cap(pg)
			st.bytes += cap(pg) * int(unsafe.Sizeof(*new(T)))
		}
	}
}

// shelfArchives are two archives of one shape and different lengths: B's
// logs are longer than A's, though under twice as long, so each of A's
// pages finds one of B's in its capacity class or the next.
func shelfArchives(t *testing.T) (a, b [][]byte) {
	return encodeTraces(t, exchangeTraces(40)), encodeTraces(t, exchangeTraces(44))
}

// TestShelvedPagesChangeNothing: on every path, analysing archives A, B
// and A again, one after the other, writes every artifact byte for byte
// as a first analysis of the same archive with nothing on the shelf does;
// B writes into pages A gave back, and the second analysis of A opens no
// page of its own — it reuses the pages of B, a different archive,
// whose longer logs it writes only in part.
func TestShelvedPagesChangeNothing(t *testing.T) {
	archA, archB := shelfArchives(t)
	for _, p := range shelfPaths {
		t.Run(p.name, func(t *testing.T) {
			emptyShelves()
			coldB, _, reused := analyzeLogged(t, p, archB)
			if reused != 0 {
				t.Fatalf("an analysis on empty shelves reused %d bytes", reused)
			}
			emptyShelves()
			coldA, _, _ := analyzeLogged(t, p, archA)
			gotB, _, reusedB := analyzeLogged(t, p, archB)
			gotA, heldA, reusedA := analyzeLogged(t, p, archA)
			for _, c := range []struct {
				name      string
				got, want feedOutcome
			}{{"B after A", gotB, coldB}, {"A after B", gotA, coldA}} {
				if !bytes.Equal(c.got.report, c.want.report) || !bytes.Equal(c.got.prof, c.want.prof) || !bytes.Equal(c.got.phases, c.want.phases) {
					t.Errorf("%s: the artifacts differ from a cold analysis's", c.name)
				}
			}
			if reusedB == 0 {
				t.Errorf("B reused none of A's pages")
			}
			if reusedA != heldA {
				t.Errorf("the second analysis of A reused %d of its %d ledger bytes, want all", reusedA, heldA)
			}
		})
	}
}

// TestConcurrentAnalysesShareTheShelf: four analyses at once, of both
// archives and by every path, take pages off one shelf and give them back
// while the others do; each writes what a cold analysis of its archive
// writes. Under the race detector this is the shelf's lock at work.
func TestConcurrentAnalysesShareTheShelf(t *testing.T) {
	archives := make([][][]byte, 2)
	archives[0], archives[1] = shelfArchives(t)
	cold := make([]feedOutcome, 2)
	for k, images := range archives {
		emptyShelves()
		cold[k], _, _ = analyzeLogged(t, shelfPaths[0], images)
	}
	for round := range 3 {
		var wg sync.WaitGroup
		got := make([]feedOutcome, 4)
		for i := range got {
			run := shelfPaths[(i+round)%len(shelfPaths)].prepare(t, archives[i%2])
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = run(Config{Scheme: vclock.Hierarchical, Title: "shelf"})
			}()
		}
		wg.Wait()
		for i, out := range got {
			want := cold[i%2]
			if out.err != nil || !bytes.Equal(out.report, want.report) || !bytes.Equal(out.prof, want.prof) || !bytes.Equal(out.phases, want.phases) {
				t.Errorf("round %d, analysis %d: the artifacts differ from a cold analysis's (err %v)", round, i, out.err)
			}
		}
	}
}

// TestFailedAnalysisShelvesNothing: an analysis that fails — a deadlock
// in the sweep, a live session finalized before its headers arrived —
// gives no page back: the shelves hold the last finished analysis's
// pages, less any the failed one took, and none of its own.
func TestFailedAnalysisShelvesNothing(t *testing.T) {
	archA, _ := shelfArchives(t)
	emptyShelves()
	analyzeLogged(t, shelfPaths[0], archA)
	before := shelved()
	if len(before.pages) == 0 {
		t.Fatal("a finished analysis shelved no page")
	}
	deadlock := []*trace.Trace{
		synth(0, 0, []trace.Event{enter(0, 0), exit(10, 0)}),
		synth(1, 0, []trace.Event{enter(0, 0), enter(1, 2), recv(5, 0, 7, 100), exit(5, 2), exit(10, 0)}),
	}
	if _, err := Analyze(deadlock, Config{Scheme: vclock.FlatSingle, Title: "deadlock"}); err == nil {
		t.Fatal("the deadlocked analysis succeeded")
	}
	l, err := NewLive(LiveConfig{Config: Config{Scheme: vclock.Hierarchical}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Finalize(context.Background()); err == nil {
		t.Fatal("a session without headers finalized")
	}
	for pg, n := range shelved().pages {
		if before.pages[pg] != n {
			t.Errorf("a failed analysis shelved page %p of %d records", pg, n)
		}
	}
}

// TestShelfKeepsArraysWhole: analyses of ever shorter archives, each
// cutting its pages from the last one's, leave the shelves holding one
// ledger, each page at the capacity its array was made with — a page
// cut for a shorter log goes back whole, never as the short page that
// would keep the whole array alive — and no ledger holds more than four
// times what a cold analysis of its archive holds. The log reports what
// share of each ledger came off the shelf, the first on empty shelves.
func TestShelfKeepsArraysWhole(t *testing.T) {
	rounds := []int{96, 60, 40, 26, 17, 11, 7}
	archives := make([][][]byte, len(rounds))
	for i, n := range rounds {
		archives[i] = encodeTraces(t, exchangeTraces(n))
	}
	for _, p := range shelfPaths {
		t.Run(p.name, func(t *testing.T) {
			cold, coldHeld := make([]feedOutcome, len(archives)), make([]int, len(archives))
			for i, images := range archives {
				emptyShelves()
				cold[i], coldHeld[i], _ = analyzeLogged(t, p, images)
			}
			emptyShelves()
			made := map[unsafe.Pointer]int{} // every array shelved so far, at its capacity when first shelved
			for i, images := range archives {
				out, held, reused := analyzeLogged(t, p, images)
				t.Logf("%d rounds: %.0f%% of the ledger off the shelf", rounds[i], 100*float64(reused)/float64(held))
				if held >= 4*coldHeld[i] {
					t.Errorf("%d rounds: a ledger of %d bytes, %d cold", rounds[i], held, coldHeld[i])
				}
				if !bytes.Equal(out.report, cold[i].report) || !bytes.Equal(out.prof, cold[i].prof) || !bytes.Equal(out.phases, cold[i].phases) {
					t.Errorf("%d rounds: the artifacts differ from a cold analysis's", rounds[i])
				}
				for pg, n := range shelved().pages {
					if was, ok := made[pg]; ok && was != n {
						t.Errorf("%d rounds: an array of %d records went back to the shelf as a page of %d", rounds[i], was, n)
					}
					made[pg] = n
				}
			}
		})
	}
}
