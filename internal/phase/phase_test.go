package phase

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

var (
	sigA    = SigOf("MPI_Send")
	sigB    = SigOf("MPI_Recv")
	sigC    = SigOf("MPI_Barrier")
	sigInit = SigOf("MPI_Init")
)

// op is a test shorthand.
func op(enter, exit float64, sig uint64) Op { return Op{Enter: enter, Exit: exit, Sig: sig} }

func TestSigOfDistinguishesNames(t *testing.T) {
	if sigA == sigB || sigA == sigC || sigB == sigC {
		t.Fatalf("region signatures collide: %x %x %x", sigA, sigB, sigC)
	}
	if SigOf("MPI_Send") != sigA {
		t.Fatal("SigOf is not a pure function of the name")
	}
}

func TestDetectEmpty(t *testing.T) {
	for _, in := range [][]Log{nil, {}, {nil, nil}} {
		s := Detect(in)
		if s.Phases() != 1 || s.Period != 1 || s.Counts[0] != 0 {
			t.Fatalf("empty input: got %d phases period %d counts %v", s.Phases(), s.Period, s.Counts)
		}
	}
}

// TestDetectPeriodic is the clean case: two ranks, three iterations of
// an exchange/reduce pair separated by silences.
func TestDetectPeriodic(t *testing.T) {
	var r0, r1 []Op
	for i := 0; i < 3; i++ {
		t0 := float64(i) * 10
		r0 = append(r0, op(t0, t0+1, sigA), op(t0+5, t0+6, sigB))
		r1 = append(r1, op(t0+0.2, t0+1.2, sigA), op(t0+5.2, t0+6.2, sigB))
	}
	s := Detect(onePage([][]Op{r0, r1}))
	if s.Phases() != 6 {
		t.Fatalf("phases = %d, want 6 (bounds %v)", s.Phases(), s.Bounds)
	}
	if s.Period != 2 || s.Pre != 0 || s.Post != 0 {
		t.Fatalf("period %d pre %d post %d, want 2 0 0", s.Period, s.Pre, s.Post)
	}
	for i, c := range s.Counts {
		if c != 2 {
			t.Fatalf("phase %d: %d ops, want 2", i, c)
		}
	}
	// Alternating steps: signatures repeat with period 2 exactly.
	for i := 2; i < 6; i++ {
		if s.Sigs[i] != s.Sigs[i-2] || s.Kinds[i] != s.Kinds[i-2] {
			t.Fatalf("phase %d does not repeat phase %d", i, i-2)
		}
	}
	if s.Sigs[0] == s.Sigs[1] {
		t.Fatal("distinct steps alias to one signature")
	}
}

// TestDetectPrologueTrim plants a one-off setup region before the
// periodic body; validation must absorb it as a prologue phase.
func TestDetectPrologueTrim(t *testing.T) {
	rows := make([][]Op, 2)
	for r := range rows {
		rows[r] = append(rows[r], op(-10, -9, sigInit))
		for i := 0; i < 3; i++ {
			t0 := float64(i) * 10
			rows[r] = append(rows[r], op(t0, t0+1, sigA), op(t0+5, t0+6, sigB))
		}
	}
	s := Detect(onePage(rows))
	if s.Phases() != 7 || s.Pre != 1 || s.Post != 0 || s.Period != 2 {
		t.Fatalf("phases %d pre %d post %d period %d, want 7 1 0 2",
			s.Phases(), s.Pre, s.Post, s.Period)
	}
}

// TestDetectRaggedRanks: rank 1 only joins every other step (a border
// rank of a stencil). Its per-rank period differs from rank 0's, and
// detection must still accept the partition.
func TestDetectRaggedRanks(t *testing.T) {
	var r0, r1 []Op
	for i := 0; i < 6; i++ {
		t0 := float64(i) * 10
		r0 = append(r0, op(t0, t0+1, sigA))
		if i%2 == 0 {
			r1 = append(r1, op(t0, t0+1, sigA))
		}
	}
	s := Detect(onePage([][]Op{r0, r1}))
	if s.Phases() != 6 {
		t.Fatalf("phases = %d, want 6", s.Phases())
	}
	if s.Period != 2 {
		t.Fatalf("period = %d, want 2 (op counts alternate 2,1)", s.Period)
	}
	wantCounts := []int{2, 1, 2, 1, 2, 1}
	if !reflect.DeepEqual(s.Counts, wantCounts) {
		t.Fatalf("counts = %v, want %v", s.Counts, wantCounts)
	}
}

// TestDetectSkipsAperiodicFinestCut: the middle iteration has an
// internal silence the others lack, so the finest partition is
// aperiodic (and beyond what prologue/epilogue trimming may absorb)
// and detection must advance to the coarser threshold that recovers
// the five iterations.
func TestDetectSkipsAperiodicFinestCut(t *testing.T) {
	var r0 []Op
	for i := 0; i < 5; i++ {
		t0 := float64(i) * 10
		if i == 2 {
			r0 = append(r0, op(t0, t0+1, sigA), op(t0+2, t0+3, sigB))
		} else {
			r0 = append(r0, op(t0, t0+1, sigA), op(t0+1, t0+2, sigB))
		}
	}
	s := Detect(onePage([][]Op{r0}))
	if s.Phases() != 5 || s.Period != 1 {
		t.Fatalf("phases %d period %d, want 5 1 (bounds %v)", s.Phases(), s.Period, s.Bounds)
	}
	for i, c := range s.Counts {
		if c != 2 {
			t.Fatalf("phase %d: %d ops, want 2", i, c)
		}
	}
}

// TestDetectFallback: three unrelated regions with no repetition at
// any threshold fall back to the finest silence partition.
func TestDetectFallback(t *testing.T) {
	r0 := []Op{op(0, 1, sigA), op(11, 12, sigB), op(23, 24, sigC)}
	s := Detect(onePage([][]Op{r0}))
	if s.Phases() != 3 || s.Pre != 0 || s.Post != 0 {
		t.Fatalf("phases %d pre %d post %d, want 3 0 0", s.Phases(), s.Pre, s.Post)
	}
	if s.Period != 3 {
		t.Fatalf("period = %d, want 3 (aperiodic fallback)", s.Period)
	}
}

func TestIndexOf(t *testing.T) {
	s := &Segmentation{
		Bounds: []float64{0, 5, 10},
		Sigs:   []uint64{1, 2},
		Kinds:  []uint64{1, 2},
		Counts: []int{1, 1},
		Period: 1,
	}
	cases := []struct {
		t    float64
		want int
	}{
		{-1, 0}, {0, 0}, {4.9, 0}, {5, 1}, {7, 1}, {10, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := s.IndexOf(c.t); got != c.want {
			t.Fatalf("IndexOf(%g) = %d, want %d", c.t, got, c.want)
		}
	}
}

// TestDetectOrderInsensitive: the multiset hash must not depend on op
// order within a rank's log.
func TestDetectOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := make([][]Op, 3)
	for r := range base {
		for i := 0; i < 4; i++ {
			t0 := float64(i)*8 + rng.Float64()
			base[r] = append(base[r], op(t0, t0+1, sigA), op(t0+3, t0+4, sigB))
		}
	}
	want := Detect(onePage(base))
	shuffled := make([][]Op, len(base))
	for r := range base {
		shuffled[r] = append([]Op(nil), base[r]...)
		rng.Shuffle(len(shuffled[r]), func(i, j int) {
			shuffled[r][i], shuffled[r][j] = shuffled[r][j], shuffled[r][i]
		})
	}
	got := Detect(onePage(shuffled))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("detection depends on op order:\n got %+v\nwant %+v", got, want)
	}
}

func TestDetectManyGapsStaysBounded(t *testing.T) {
	// More silences than maxCuts, all of distinct lengths: the
	// pre-merge keeps detection feasible and the result still covers
	// the run.
	var r0 []Op
	n := maxCuts + 200
	t0, lastExit := 0.0, 0.0
	for i := 0; i < n; i++ {
		r0 = append(r0, op(t0, t0+1, sigA))
		lastExit = t0 + 1
		t0 += 2 + float64(i)*1e-3
	}
	s := Detect(onePage([][]Op{r0}))
	if s.Phases() > maxCuts+1 {
		t.Fatalf("phases = %d, want <= %d", s.Phases(), maxCuts+1)
	}
	if s.Bounds[0] != 0 || s.Bounds[len(s.Bounds)-1] != lastExit {
		t.Fatalf("bounds %g..%g do not cover the run", s.Bounds[0], s.Bounds[len(s.Bounds)-1])
	}
	total := 0
	for _, c := range s.Counts {
		total += c
	}
	if total != n {
		t.Fatalf("counts sum to %d, want %d", total, n)
	}
}

// Draw kinds of randomRun beside the plain periodic and aperiodic ones.
const (
	drawLong = 1 << iota // a long run whose one glitch lies past its half
	drawLate             // a glitch on a later rank only, in the first or last iteration
	drawWide             // 100 ranks or more
)

// randomRun draws one run for the differential test: a periodic body of
// steps with jittered gaps (so the finest partitions are usually
// aperiodic and several thresholds are tried), ragged ranks that join
// only every other iteration, ranks with empty logs, 0–2 one-off
// prologue and epilogue regions, or no repetition at all; op order
// within a rank is shuffled. Some bodies are long, with one op of a
// region of its own in an iteration past the half, so a rank's sequence
// repeats up to there and no further; in some a rank other than rank 0
// has that op in the first or the last iteration, so rank 0 passes the
// untrimmed partition and that rank refutes it; some runs have 100 ranks
// or more. kinds reports which of these the run is.
func randomRun(rng *rand.Rand) (ops [][]Op, kinds int) {
	sigs := []uint64{sigA, sigB, sigC, sigInit, SigOf("MPI_Allreduce")}
	ranks := 1 + rng.Intn(6)
	if rng.Intn(12) == 0 {
		ranks = 100 + rng.Intn(50)
		kinds |= drawWide
	}
	ops = make([][]Op, ranks)
	empty := make([]bool, ranks)
	for r := 1; r < ranks; r++ { // rank 0 always has ops
		empty[r] = rng.Intn(5) == 0
	}
	add := func(r int, enter, dur float64, sig uint64) {
		if !empty[r] {
			ops[r] = append(ops[r], op(enter, enter+dur, sig))
		}
	}
	// Times are multiples of 1/8 so equal gaps — one threshold for many
	// cuts — occur next to distinct ones.
	q := func(x float64) float64 { return float64(int(x*8)) / 8 }
	now := 0.0
	oneOff := func(n int) {
		for i := 0; i < n; i++ {
			for r := 0; r < ranks; r++ {
				add(r, now, 1, SigOf(fmt.Sprint("setup", rng.Intn(3))))
			}
			now += 3 + q(rng.Float64()*4)
		}
	}
	if rng.Intn(4) == 0 { // aperiodic: the fallback
		for i, n := 0, 2+rng.Intn(30); i < n; i++ {
			add(rng.Intn(ranks), now, q(rng.Float64()*2), sigs[rng.Intn(len(sigs))])
			now += q(rng.Float64() * 4)
		}
		ops[0] = append(ops[0], op(now, now+1, sigA))
	} else {
		oneOff(rng.Intn(4) % 3)
		steps := 1 + rng.Intn(4)
		stepSig := make([]uint64, steps)
		for s := range stepSig {
			stepSig[s] = sigs[rng.Intn(len(sigs))]
		}
		every := make([]int, ranks) // ragged: rank r joins iteration i when i%every[r] == 0
		for r := range every {
			every[r] = 1 + rng.Intn(2)
		}
		iters := 2 + rng.Intn(12)
		glitchRank, glitchIter := -1, -1 // the one op of a region of its own
		switch rng.Intn(6) {
		case 0:
			iters = 24 + rng.Intn(40)
			glitchRank, glitchIter = rng.Intn(ranks), iters/2+1+rng.Intn(iters-iters/2-1)
			kinds |= drawLong
		case 1:
			if ranks > 1 {
				glitchRank, glitchIter = 1+rng.Intn(ranks-1), (iters-1)*rng.Intn(2)
				every[glitchRank], empty[glitchRank] = 1, false
				kinds |= drawLate
			}
		}
		for i := 0; i < iters; i++ {
			for s := 0; s < steps; s++ {
				for r := 0; r < ranks; r++ {
					if i%every[r] != 0 {
						continue
					}
					sig := stepSig[s]
					if r == glitchRank && i == glitchIter && s == 0 {
						sig = SigOf("glitch")
					}
					add(r, now+q(rng.Float64()/2), 1, sig)
				}
				now += 2 + q(rng.Float64()) // within an iteration: short, varying silences
			}
			now += 6 + q(rng.Float64()*2)
		}
		oneOff(rng.Intn(4) % 3)
	}
	for r := range ops {
		rng.Shuffle(len(ops[r]), func(i, j int) { ops[r][i], ops[r][j] = ops[r][j], ops[r][i] })
	}
	return ops, kinds
}

// TestDetectMatchesReference holds the in-place candidate search to
// Detect's definition on a few thousand drawn runs, and on one with more
// silences than maxCuts.
func TestDetectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	accepted, fallback, trimmed := 0, 0, 0
	var drawn [3]int
	for i := 0; i < 3000; i++ {
		ops, kinds := randomRun(rng)
		for k := range drawn {
			if kinds&(1<<k) != 0 {
				drawn[k]++
			}
		}
		got, want := Detect(onePage(ops)), referenceDetect(ops)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: Detect differs from its definition:\n got %+v\nwant %+v\n ops %v", i, got, want, ops)
		}
		switch {
		case 2*got.Period > got.Phases()-got.Pre-got.Post:
			fallback++
		case got.Pre+got.Post > 0:
			trimmed++
		default:
			accepted++
		}
	}
	if accepted < 300 || fallback < 300 || trimmed < 300 {
		t.Errorf("the draw is lopsided: %d clean acceptances, %d trimmed, %d fallbacks", accepted, trimmed, fallback)
	}
	if drawn[0] < 100 || drawn[1] < 100 || drawn[2] < 100 {
		t.Errorf("the draw is lopsided: %d long runs glitched past the half, %d glitched on a later rank, %d of 100 ranks or more",
			drawn[0], drawn[1], drawn[2])
	}

	// More gaps than maxCuts, over three ranks of which one is ragged.
	ops := make([][]Op, 4) // rank 3 stays empty
	now := 0.0
	for i := 0; i < maxCuts+300; i++ {
		ops[0] = append(ops[0], op(now, now+1, sigA))
		ops[1] = append(ops[1], op(now+0.25, now+1, sigB))
		if i%2 == 0 {
			ops[2] = append(ops[2], op(now, now+0.5, sigC))
		}
		now += 2 + float64(rng.Intn(64))/64
	}
	if got, want := Detect(onePage(ops)), referenceDetect(ops); !reflect.DeepEqual(got, want) {
		t.Fatalf("over maxCuts gaps: Detect differs from its definition:\n got %d phases pre %d post %d period %d\nwant %d phases pre %d post %d period %d",
			got.Phases(), got.Pre, got.Post, got.Period, want.Phases(), want.Pre, want.Post, want.Period)
	}
}

// randomLogs draws one run for the coverage-union differential: per rank
// either an enter-ordered log, as the sweep writes for leaf regions (the
// merge path), or the same ops in exit order under enclosing non-user
// regions, or shuffled (the sort-first path). Times are multiples of 1/4
// and durations 0, 1/4, 1/2, ..., so zero-length ops, spans that exactly
// touch the next one (enter == the exit before it) within a rank and
// across ranks, duplicates and containment all occur next to plain gaps.
func randomLogs(rng *rand.Rand, ranks int) [][]Op {
	sigs := []uint64{sigA, sigB, sigC, sigInit}
	ops := make([][]Op, ranks)
	for r := range ops {
		if ranks > 1 && rng.Intn(6) == 0 {
			continue // a rank without ops
		}
		now := float64(rng.Intn(8)) / 4
		var nest []Op // open enclosing regions: they exit, and log, after their children
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			dur := float64(rng.Intn(5)) / 4
			o := op(now, now+dur, sigs[rng.Intn(len(sigs))])
			if rng.Intn(8) == 0 {
				o.Exit = now + dur + 8 // encloses what follows
				nest = append(nest, o)
			} else {
				ops[r] = append(ops[r], o)
			}
			switch rng.Intn(4) {
			case 0:
				now += dur // the next op touches this one
			case 1:
				// the next op starts inside this one, or with it
				now += float64(rng.Intn(int(dur*4)+1)) / 4
			default:
				now += dur + float64(1+rng.Intn(12))/4
			}
		}
		for i := len(nest) - 1; i >= 0; i-- {
			ops[r] = append(ops[r], nest[i])
		}
		if rng.Intn(4) == 0 {
			rng.Shuffle(len(ops[r]), func(i, j int) { ops[r][i], ops[r][j] = ops[r][j], ops[r][i] })
		}
	}
	if ranks > 0 && len(ops[0]) == 0 {
		ops[0] = []Op{op(0, 0, sigA)} // rank 0 always has ops, here a zero-length one
	}
	return ops
}

// TestDetectUnionMatchesReference holds the merged coverage union to its
// definition — collect every span, sort, coalesce — through Detect's whole
// result, on logs that take the merge path, the sort-first path or both,
// for one rank, a few, and a thousand.
func TestDetectUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ordered, unordered := 0, 0
	for i := 0; i < 3000; i++ {
		ranks := 1 + rng.Intn(6)
		switch {
		case i%10 == 0:
			ranks = 1
		case i%500 == 1:
			ranks = 1000
		}
		ops := randomLogs(rng, ranks)
		for _, ol := range ops {
			if slices.IsSortedFunc(ol, func(x, y Op) int { return cmp.Compare(x.Enter, y.Enter) }) {
				ordered++
			} else {
				unordered++
			}
		}
		before := fmt.Sprint(ops)
		got, want := Detect(onePage(ops)), referenceDetect(ops)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%d ranks): Detect differs from its definition:\n got %+v\nwant %+v\n ops %v", i, ranks, got, want, ops)
		}
		if fmt.Sprint(ops) != before {
			t.Fatalf("run %d: Detect reordered its input", i)
		}
	}
	if ordered < 3000 || unordered < 1000 {
		t.Errorf("the draw is lopsided: %d enter-ordered logs, %d not", ordered, unordered)
	}
}

// cutPages cuts each rank's ops into a log of pages at drawn boundaries,
// empty pages among them; the pages alias rows.
func cutPages(rng *rand.Rand, rows [][]Op) []Log {
	logs := make([]Log, len(rows))
	for r, ops := range rows {
		for len(ops) > 0 || rng.Intn(4) == 0 {
			n := rng.Intn(len(ops) + 1)
			if rng.Intn(3) == 0 {
				n = min(n, 2) // short pages, so a dozen ops span several
			}
			logs[r] = append(logs[r], ops[:n:n])
			ops = ops[n:]
		}
	}
	return logs
}

// TestDetectPagedMatchesContiguous: Detect reads each rank's ops in the
// pages they were written into, and where the pages end changes nothing.
// The drawn runs of the union differential — enter-ordered, nested,
// shuffled, touching and zero-length ops; one rank, a few, a thousand —
// cut at drawn page boundaries give the result of the same ops on one
// page a rank, and of Detect's definition.
func TestDetectPagedMatchesContiguous(t *testing.T) {
	rng, cuts := rand.New(rand.NewSource(22)), rand.New(rand.NewSource(24))
	pages, split := 0, 0
	for i := 0; i < 3000; i++ {
		ranks := 1 + rng.Intn(6)
		switch {
		case i%10 == 0:
			ranks = 1
		case i%500 == 1:
			ranks = 1000
		}
		rows := randomLogs(rng, ranks)
		logs := cutPages(cuts, rows)
		for r, l := range logs {
			pages += len(l)
			if len(l) > 1 && l.len() > 0 {
				split++
			}
			if l.len() != len(rows[r]) {
				t.Fatalf("run %d, rank %d: %d ops on the pages, %d drawn", i, r, l.len(), len(rows[r]))
			}
		}
		before := fmt.Sprint(rows)
		got := Detect(logs)
		if want := Detect(onePage(rows)); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%d ranks): paged Detect differs from contiguous:\n got %+v\nwant %+v\n logs %v", i, ranks, got, want, logs)
		}
		if want := referenceDetect(rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%d ranks): paged Detect differs from its definition:\n got %+v\nwant %+v\n logs %v", i, ranks, got, want, logs)
		}
		if fmt.Sprint(rows) != before {
			t.Fatalf("run %d: Detect reordered its input", i)
		}
	}
	if split < 3000 {
		t.Errorf("the draw is lopsided: %d pages, only %d logs of more than one", pages, split)
	}
}

// TestCoverageTouchingAndZeroLength pins the closed-interval rule on the
// smallest cases: a span that starts exactly where the union ends joins
// it, within a rank and across ranks; a zero-length op is a span.
func TestCoverageTouchingAndZeroLength(t *testing.T) {
	got := coverage(onePage([][]Op{
		{op(0, 1, sigA), op(1, 2, sigA), op(5, 5, sigB)},
		nil,
		{op(2, 3, sigA), op(4, 3, sigC), op(7, 8, sigA)}, // an exit before its enter covers the enter alone
		{op(8, 9, sigA)},
	}))
	want := []interval{{0, 3}, {4, 4}, {5, 5}, {7, 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coverage = %v, want %v", got, want)
	}
}

// TestDetectAllocatesNoSpanList: on the shape of the halo2d benchmark —
// 192 ranks of 237 leaf ops in enter order, 256 iterations' worth of
// atoms — Detect allocates its prefix table (ranks × (atoms+1)
// summaries), per-atom buffers and the union, and nothing proportional
// to the number of ops: no list of every span, no sorted copy — and, when
// a rank's ops come on several pages, no copy that joins them.
func TestDetectAllocatesNoSpanList(t *testing.T) {
	const ranks, iters = 192, 237
	rows := make([][]Op, ranks)
	for r := range rows {
		for i := 0; i < iters; i++ {
			t0 := float64(i)*4 + float64(r%7)/16
			rows[r] = append(rows[r], op(t0, t0+1, sigA))
		}
	}
	ops := onePage(rows)
	seg := Detect(ops)
	if seg.Phases() != iters {
		t.Fatalf("%d phases, want %d", seg.Phases(), iters)
	}
	paged := make([]Log, ranks) // the pages a pulled rank's sweep fills: 32, 64, 128 and a part of 256
	for r, ol := range rows {
		paged[r] = Log{ol[:32:32], ol[32:96:96], ol[96:224:224], ol[224:]}
	}
	if !reflect.DeepEqual(Detect(paged), seg) {
		t.Fatal("the same ops on four pages a rank segment differently")
	}
	got := max(allocatedBytes(func() { Detect(ops) }), allocatedBytes(func() { Detect(paged) }))
	const (
		prefix  = ranks * (iters + 1) * 16 // []rankAtom
		perAtom = 1024                     // union buffers, starts, gaps, thresholds, cuts, seq, fail, kind sets, result
		spans   = ranks * iters * 16       // what a list of every span would add
	)
	t.Logf("Detect allocated %d bytes: prefix table %d, %d atoms, a span list would be %d", got, prefix, iters, spans)
	if budget := uint64(prefix + iters*perAtom); got > budget {
		t.Errorf("Detect allocated %d bytes, budget %d (prefix table %d + %d per atom)", got, budget, prefix, perAtom)
	}
	if got > prefix+spans/2 {
		t.Errorf("Detect allocated %d bytes: that is room for a list of the ops' spans (%d) beside the prefix table (%d)", got, spans, prefix)
	}
}

// onePage hands Detect contiguous per-rank logs: each rank's ops as the
// one page of its log.
func onePage(rows [][]Op) []Log {
	logs := make([]Log, len(rows))
	for r, ops := range rows {
		logs[r] = Log{ops}
	}
	return logs
}

// allocatedBytes returns the bytes one call of f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// referenceDetect is Detect's definition written the straightforward
// way — each candidate partition materializes every rank's phase
// sequence (phaseSeq) and validate runs one KMP per rank per trim
// (minPeriod), trim-major. The differential tests hold Detect to it.
func referenceDetect(ops [][]Op) *Segmentation {
	total := 0
	for _, ol := range ops {
		total += len(ol)
	}
	if total == 0 {
		return &Segmentation{
			Bounds: []float64{0, 0},
			Sigs:   []uint64{0},
			Kinds:  []uint64{0},
			Counts: []int{0},
			Period: 1,
		}
	}

	// Coverage union across all ranks.
	ivs := make([]interval, 0, total)
	for _, ol := range ops {
		for _, op := range ol {
			b := op.Exit
			if b < op.Enter {
				b = op.Enter
			}
			ivs = append(ivs, interval{op.Enter, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].a != ivs[j].a {
			return ivs[i].a < ivs[j].a
		}
		return ivs[i].b < ivs[j].b
	})
	segs := make([]interval, 0, 64)
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.a <= cur.b {
			if iv.b > cur.b {
				cur.b = iv.b
			}
			continue
		}
		segs = append(segs, cur)
		cur = iv
	}
	segs = append(segs, cur)

	// On inputs with more silences than maxCuts, pre-merge across the
	// shortest ones so only the longest maxCuts gaps stay cuttable.
	if len(segs) > maxCuts+1 {
		lens := make([]float64, 0, len(segs)-1)
		for i := 0; i+1 < len(segs); i++ {
			lens = append(lens, segs[i+1].a-segs[i].b)
		}
		sort.Float64s(lens)
		floor := lens[len(lens)-maxCuts]
		merged := segs[:1]
		for _, sg := range segs[1:] {
			last := &merged[len(merged)-1]
			if sg.a-last.b < floor {
				last.b = sg.b
				continue
			}
			merged = append(merged, sg)
		}
		segs = merged
	}

	nAtoms := len(segs)
	starts := make([]float64, nAtoms)
	for i, sg := range segs {
		starts[i] = sg.a
	}
	atomOf := func(enter float64) int {
		i := sort.SearchFloat64s(starts, enter)
		if i == nAtoms || starts[i] > enter {
			i--
		}
		return i
	}

	// Per-rank per-atom multiset sums, plus the global distinct-name
	// sets feeding the rank-agnostic structural signatures.
	perRank := make([][]rankAtom, len(ops))
	kindSets := make([]map[uint64]struct{}, nAtoms)
	for r, ol := range ops {
		if len(ol) == 0 {
			continue
		}
		row := make([]rankAtom, nAtoms)
		for _, op := range ol {
			at := atomOf(op.Enter)
			row[at].sum += mix64(op.Sig)
			row[at].cnt++
			ks := kindSets[at]
			if ks == nil {
				ks = make(map[uint64]struct{}, 4)
				kindSets[at] = ks
			}
			ks[op.Sig] = struct{}{}
		}
		perRank[r] = row
	}

	gaps := make([]float64, nAtoms-1)
	for i := range gaps {
		gaps[i] = segs[i+1].a - segs[i].b
	}
	thresholds := append([]float64(nil), gaps...)
	sort.Float64s(thresholds)
	distinct := thresholds[:0]
	for i, t := range thresholds {
		if i == 0 || t != thresholds[i-1] {
			distinct = append(distinct, t)
		}
	}

	cutAt := func(threshold float64) []int {
		var cuts []int
		for i, g := range gaps {
			if g >= threshold {
				cuts = append(cuts, i)
			}
		}
		return cuts
	}

	for _, th := range distinct {
		cuts := cutAt(th)
		if len(cuts) == 0 {
			break // coarser thresholds only remove more cuts
		}
		if pre, post, ok := validate(perRank, nAtoms, cuts); ok {
			return referenceBuild(segs, cuts, perRank, kindSets, pre, post)
		}
	}
	// No periodic partition: fall back to the finest silence partition
	// so the artifact still resolves the run's covered spans.
	return referenceBuild(segs, cutAt(0), perRank, kindSets, 0, 0)
}

// phaseSeq folds a rank's atom summaries into per-phase tuples for the
// partition cutting after the given atom indices.
func phaseSeq(row []rankAtom, nAtoms int, cuts []int, out []rankAtom) []rankAtom {
	out = out[:0]
	acc := rankAtom{}
	next := 0
	for a := 0; a < nAtoms; a++ {
		acc.sum += row[a].sum
		acc.cnt += row[a].cnt
		if next < len(cuts) && cuts[next] == a {
			out = append(out, acc)
			acc = rankAtom{}
			next++
		}
	}
	return append(out, acc)
}

// minPeriod returns the minimal shift-period of seq via the KMP
// failure function: p is the smallest value with seq[i] == seq[i-p]
// for all i ≥ p.
func minPeriod(seq []rankAtom) int {
	n := len(seq)
	if n == 0 {
		return 1
	}
	fail := make([]int, n+1)
	fail[0], fail[1] = -1, 0
	k := 0
	for i := 1; i < n; i++ {
		for k >= 0 && seq[i] != seq[k] {
			k = fail[k]
		}
		k++
		fail[i+1] = k
	}
	return n - fail[n]
}

// validate accepts a partition when, after one global trim, every
// rank's phase-tuple sequence repeats at least twice.
func validate(perRank [][]rankAtom, nAtoms int, cuts []int) (pre, post int, ok bool) {
	k := len(cuts) + 1
	if k < 2 {
		return 0, 0, false
	}
	seqs := make([][]rankAtom, 0, len(perRank))
	var buf []rankAtom
	for _, row := range perRank {
		if row == nil {
			continue
		}
		buf = phaseSeq(row, nAtoms, cuts, buf)
		seqs = append(seqs, append([]rankAtom(nil), buf...))
	}
	for _, tr := range trimOrder {
		pre, post = tr[0], tr[1]
		l := k - pre - post
		if l < 2 {
			continue
		}
		allOK := true
		for _, seq := range seqs {
			p := minPeriod(seq[pre : k-post])
			if 2*p > l {
				allOK = false
				break
			}
		}
		if allOK {
			return pre, post, true
		}
	}
	return 0, 0, false
}

// referenceBuild assembles the Segmentation for an accepted partition.
func referenceBuild(segs []interval, cuts []int, perRank [][]rankAtom, kindSets []map[uint64]struct{}, pre, post int) *Segmentation {
	k := len(cuts) + 1
	s := &Segmentation{
		Bounds: make([]float64, 0, k+1),
		Sigs:   make([]uint64, k),
		Kinds:  make([]uint64, k),
		Counts: make([]int, k),
		Pre:    pre,
		Post:   post,
	}
	s.Bounds = append(s.Bounds, segs[0].a)
	for _, c := range cuts {
		s.Bounds = append(s.Bounds, (segs[c].b+segs[c+1].a)/2)
	}
	s.Bounds = append(s.Bounds, segs[len(segs)-1].b)

	nAtoms := len(segs)
	var buf []rankAtom
	for _, row := range perRank {
		if row == nil {
			continue
		}
		buf = phaseSeq(row, nAtoms, cuts, buf)
		for i, t := range buf {
			s.Sigs[i] += t.sum
			s.Counts[i] += t.cnt
		}
	}
	// Structural signatures: XOR over the distinct region-name hashes
	// of each phase (set semantics — merging atoms unions the sets).
	next, phase := 0, 0
	kinds := make(map[uint64]struct{}, 8)
	flush := func() {
		var h uint64
		for sig := range kinds {
			h ^= mix64(sig)
		}
		s.Kinds[phase] = h
		phase++
		for sig := range kinds {
			delete(kinds, sig)
		}
	}
	for a := 0; a < nAtoms; a++ {
		for sig := range kindSets[a] {
			kinds[sig] = struct{}{}
		}
		if next < len(cuts) && cuts[next] == a {
			flush()
			next++
		}
	}
	flush()

	core := make([]rankAtom, 0, k)
	for i := pre; i < k-post; i++ {
		core = append(core, rankAtom{sum: s.Sigs[i], cnt: s.Counts[i]})
	}
	s.Period = minPeriod(core)
	return s
}
