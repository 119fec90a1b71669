// Package phase detects the repeating iteration structure of a
// replayed experiment and folds wait-state severities per iteration
// instead of globally.
//
// Real metacomputing applications iterate; the paper's displays
// aggregate. A severity that appears only in one iteration on one
// metahost vanishes in the global mean, so the analyzer records, per
// rank, one signature per completed non-user region instance and this
// package segments the run into phases:
//
//  1. the union of all region intervals across ranks yields the
//     covered portions of the time axis; the silences between them are
//     candidate phase boundaries,
//  2. every candidate partition (cut at all gaps at least as long as a
//     threshold, thresholds tried finest-first) is summarized per rank
//     and per phase by an order-insensitive multiset hash of the
//     region signatures inside it,
//  3. a partition is accepted when every rank's phase sequence is
//     periodic after trimming a bounded prologue/epilogue — the
//     per-rank period may differ (ragged rank boundaries: a border
//     rank of a stencil participates in every other exchange).
//
// The multiset hash is a sum of mixed signatures, so it is associative
// across atom merges: a partition's phase hash never depends on where
// sporadic within-phase silences happened to fall. All hashes are over
// region names only — never over timestamps — so equal schedules with
// different speeds segment identically.
package phase

import (
	"cmp"
	"slices"
	"sort"
)

// Op is one completed non-user region instance observed by the replay
// sweep of one rank, in corrected time.
type Op struct {
	Enter float64
	Exit  float64
	Sig   uint64 // SigOf the region name
}

// Log is one rank's ops in sweep order, in the pages the sweep wrote
// them into: the concatenation of the pages is the log. Readers walk the
// pages in place; a page may be empty.
type Log [][]Op

// len returns the number of ops in the log.
func (l Log) len() int {
	n := 0
	for _, pg := range l {
		n += len(pg)
	}
	return n
}

// byEnter orders ops by their enter time.
func byEnter(x, y Op) int { return cmp.Compare(x.Enter, y.Enter) }

// inEnterOrder reports whether the log is sorted by enter time, within
// its pages and across them.
func (l Log) inEnterOrder() bool {
	var last *Op
	for _, pg := range l {
		if len(pg) == 0 {
			continue
		}
		if (last != nil && byEnter(pg[0], *last) < 0) || !slices.IsSortedFunc(pg, byEnter) {
			return false
		}
		last = &pg[len(pg)-1]
	}
	return true
}

// SigOf hashes a region name (FNV-1a 64).
func SigOf(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: it decorrelates region-name
// hashes before they enter the additive multiset hash, so the sum
// distinguishes multisets that plain FNV sums would alias.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Segmentation is a detected phase structure: K phases delimited by
// K+1 time bounds, each carrying a global multiset signature.
type Segmentation struct {
	// Bounds holds the phase edges in corrected seconds: phase i spans
	// [Bounds[i], Bounds[i+1]). len(Bounds) == Phases()+1.
	Bounds []float64
	// Sigs is the per-phase multiset hash over every rank's ops — the
	// exact-match signature (sensitive to op counts and rank count).
	Sigs []uint64
	// Kinds is the per-phase structural signature: a hash of the set
	// of distinct region names only, insensitive to how many ranks ran
	// them. Cross-archive alignment with changed rank counts uses it.
	Kinds []uint64
	// Counts is the per-phase total op count across ranks.
	Counts []int
	// Pre and Post count prologue/epilogue phases excluded from the
	// periodic core during validation (0 on clean iterative runs).
	Pre, Post int
	// Period is the minimal shift-period of the core phase signature
	// sequence: Sigs[i] == Sigs[i-Period] for all core i ≥ Period.
	Period int
}

// Phases returns the number of detected phases.
func (s *Segmentation) Phases() int { return len(s.Sigs) }

// IndexOf returns the phase containing corrected time t, clamped to
// the first/last phase for times outside the covered span.
func (s *Segmentation) IndexOf(t float64) int {
	i := sort.SearchFloat64s(s.Bounds, t) // first bound >= t
	if i == len(s.Bounds) || s.Bounds[i] != t {
		i--
	}
	if i < 0 {
		i = 0
	}
	if last := s.Phases() - 1; i > last {
		i = last
	}
	return i
}

// maxCuts bounds the number of silence gaps considered as phase
// boundaries; only the longest maxCuts gaps stay cuttable on
// pathological inputs, keeping detection near-linear.
const maxCuts = 4096

// trimOrder lists the (prologue, epilogue) trims validation tries, in
// order of total trimmed phases: a clean iterative run accepts at
// (0,0); an MPI_Init-style preamble or a closing barrier costs one.
var trimOrder = [][2]int{
	{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 0}, {0, 2}, {2, 1}, {1, 2}, {2, 2},
}

// interval is one covered span of the time axis.
type interval struct{ a, b float64 }

// rankAtom is a multiset summary of one rank's ops: over one atom, over
// one phase, or — in search.prefix — over every atom before a given one.
type rankAtom struct {
	sum uint64
	cnt int
}

// search is what one Detect call evaluates its candidate partitions in.
// Each active rank's atom summaries are kept as running sums (uint64
// addition wraps, and wraps back on subtraction), so the phase tuple of
// any candidate is the difference of two prefix entries: a candidate
// costs O(phases) per rank it looks at, not O(atoms), and is evaluated
// in the three buffers below, which every candidate reuses. Detect's
// allocation is therefore O(ops + ranks·atoms) however many thresholds
// it tries.
type search struct {
	nAtoms int
	ranks  int // ranks that have ops
	// prefix holds one row of nAtoms+1 entries per such rank: row[a]
	// summarizes the rank's ops in atoms [0, a).
	prefix []rankAtom
	cuts   []int      // the candidate: cut after these atom indices
	seq    []rankAtom // one rank's phase tuples under cuts
	fail   []int      // KMP failure table over a suffix of seq
}

// cutAt makes the candidate that cuts at every gap of at least
// threshold.
func (s *search) cutAt(gaps []float64, threshold float64) {
	s.cuts = s.cuts[:0]
	for i, g := range gaps {
		if g >= threshold {
			s.cuts = append(s.cuts, i)
		}
	}
}

// row returns the prefix row of the r-th rank that has ops.
func (s *search) row(r int) []rankAtom {
	return s.prefix[r*(s.nAtoms+1) : (r+1)*(s.nAtoms+1)]
}

// minus is the summary of the ops counted in a and not in its prefix b.
func (a rankAtom) minus(b rankAtom) rankAtom {
	return rankAtom{a.sum - b.sum, a.cnt - b.cnt}
}

// phases folds the r-th row into the rank's per-phase tuples under the
// candidate.
func (s *search) phases(r int) []rankAtom {
	row, seq := s.row(r), s.seq[:0]
	lo := 0
	for _, c := range s.cuts {
		seq = append(seq, row[c+1].minus(row[lo]))
		lo = c + 1
	}
	s.seq = append(seq, row[s.nAtoms].minus(row[lo]))
	return s.seq
}

// borders returns the KMP failure table of seq: fail[m] is the longest
// proper border of seq's prefix of length m, and m − fail[m] that
// prefix's minimal shift-period, the smallest p with seq[i] == seq[i-p]
// for all p ≤ i < m. The period never shrinks as the prefix grows, so
// unless whole is set the table stops at the first prefix whose period
// exceeds half of len(seq): no prefix past the returned table repeats
// twice.
func (s *search) borders(seq []rankAtom, whole bool) []int {
	n := len(seq)
	fail := append(s.fail[:0], -1, 0)
	k := 0
	for i := 1; i < n && (whole || 2*(i-k) <= n); i++ {
		for k >= 0 && seq[i] != seq[k] {
			k = fail[k]
		}
		k++
		fail = append(fail, k)
	}
	s.fail = fail
	return fail
}

// period returns the minimal shift-period of seq.
func (s *search) period(seq []rankAtom) int {
	n := len(seq)
	if n == 0 {
		return 1
	}
	return n - s.borders(seq, true)[n]
}

// accept reports whether the candidate is a periodic partition: after
// one global trim, every rank's phase-tuple sequence repeats at least
// twice. Ranks are evaluated one at a time against the set of trims no
// earlier rank has refuted, until none is left; the answer is the first
// surviving trim in trimOrder. The cores of the trims that share a
// prologue are prefixes of one suffix of the rank's sequence, so one
// failure table per prologue, cut at the longest core still wanted,
// answers all three.
func (s *search) accept() (pre, post int, ok bool) {
	k := len(s.cuts) + 1
	alive := 0
	for t, tr := range trimOrder {
		if k-tr[0]-tr[1] >= 2 {
			alive |= 1 << t
		}
	}
	for r := 0; r < s.ranks && alive != 0; r++ {
		seq := s.phases(r)
		for pre := 0; pre <= 2; pre++ {
			want := 0
			for t, tr := range trimOrder {
				if alive&(1<<t) != 0 && tr[0] == pre {
					want = max(want, k-pre-tr[1])
				}
			}
			if want == 0 {
				continue
			}
			fail := s.borders(seq[pre:pre+want], false)
			for t, tr := range trimOrder {
				if m := k - pre - tr[1]; alive&(1<<t) != 0 && tr[0] == pre &&
					(m >= len(fail) || 2*(m-fail[m]) > m) {
					alive &^= 1 << t
				}
			}
		}
	}
	for t, tr := range trimOrder {
		if alive&(1<<t) != 0 {
			return tr[0], tr[1], true
		}
	}
	return 0, 0, false
}

// span is the closed interval of the time axis an op covers; an op whose
// exit precedes its enter covers its enter alone.
func (op Op) span() interval {
	if op.Exit < op.Enter {
		return interval{op.Enter, op.Enter}
	}
	return interval{op.Enter, op.Exit}
}

// coverage returns the union of every op's span as disjoint intervals in
// time order, touching spans merged. The sweep appends a rank's ops in
// exit order, which for leaf regions is enter order, so the union is
// built without collecting or sorting the spans: each rank's log is
// merged page by page, coalescing as it goes, into the union of the ranks
// before it, between two buffers that grow to the size of the union. A
// log that is not in enter order (nested non-user regions) is sorted into
// a scratch copy first. Union of closed intervals is associative and
// takes only comparisons, so the result is, bit for bit, the one sorting
// all spans together gives; it costs O(ops + ranks × intervals in the
// union).
func coverage(logs []Log) []interval {
	var acc, next []interval
	var sorted [1][]Op // the scratch copy, as a log of one page; an array, so making the log allocates nothing
	for _, ol := range logs {
		if ol.len() == 0 {
			continue
		}
		if !ol.inEnterOrder() {
			sorted[0] = sorted[0][:0]
			for _, pg := range ol {
				sorted[0] = append(sorted[0], pg...)
			}
			slices.SortFunc(sorted[0], byEnter)
			ol = sorted[:]
		}
		acc, next = mergeSpans(next[:0], acc, ol), acc
	}
	return acc
}

// mergeSpans appends to dst the union of acc — disjoint intervals in time
// order — and the spans of ol, which is in enter order and not empty.
func mergeSpans(dst, acc []interval, ol Log) []interval {
	// A two-level cursor over the log: pg is what is left of the page
	// being read, ol the pages after it; pg is empty only at the log's end.
	var pg []Op
	turn := func() {
		for len(pg) == 0 && len(ol) > 0 {
			pg, ol = ol[0], ol[1:]
		}
	}
	turn()
	i := 0
	take := func() interval {
		if len(pg) == 0 || (i < len(acc) && acc[i].a <= pg[0].Enter) {
			i++
			return acc[i-1]
		}
		iv := pg[0].span()
		pg = pg[1:]
		turn()
		return iv
	}
	cur := take()
	for i < len(acc) || len(pg) > 0 {
		iv := take()
		if iv.a > cur.b {
			dst = append(dst, cur)
			cur = iv
		} else if iv.b > cur.b {
			cur.b = iv.b
		}
	}
	return append(dst, cur)
}

// kindSets holds the distinct region signatures of every atom, as one
// list per atom threaded through one arena: head[a] is one past the
// index of atom a's last added node, and each node links the one added
// before it. An atom holds a handful of names, so a list is searched in
// order.
type kindSets struct {
	head  []int
	nodes []kindNode
}

type kindNode struct {
	sig  uint64
	next int // one past the index of the atom's previous node; 0 ends the list
}

// add adds sig to atom a's set.
func (k *kindSets) add(a int, sig uint64) {
	for i := k.head[a]; i != 0; i = k.nodes[i-1].next {
		if k.nodes[i-1].sig == sig {
			return
		}
	}
	k.nodes = append(k.nodes, kindNode{sig: sig, next: k.head[a]})
	k.head[a] = len(k.nodes)
}

// addKind adds sig to a set of distinct region signatures, the set of one
// phase, a handful of names, searched in order.
func addKind(set []uint64, sig uint64) []uint64 {
	for _, k := range set {
		if k == sig {
			return set
		}
	}
	if set == nil {
		set = make([]uint64, 0, 4)
	}
	return append(set, sig)
}

// Detect segments the run described by the per-rank op logs. It never
// fails: runs with no detectable repetition fall back to the finest
// silence partition, and an empty input yields one empty phase.
func Detect(ops []Log) *Segmentation {
	total, active := 0, 0
	for _, ol := range ops {
		if n := ol.len(); n > 0 {
			total += n
			active++
		}
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

	segs := coverage(ops)

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

	// Per-rank running multiset sums over the atoms, plus the global
	// distinct-name sets feeding the rank-agnostic structural signatures.
	s := &search{
		nAtoms: nAtoms,
		ranks:  active,
		prefix: make([]rankAtom, active*(nAtoms+1)),
		cuts:   make([]int, 0, nAtoms),
		seq:    make([]rankAtom, 0, nAtoms),
		fail:   make([]int, 0, nAtoms+1),
	}
	kinds := kindSets{head: make([]int, nAtoms), nodes: make([]kindNode, 0, nAtoms)}
	r := 0
	for _, ol := range ops {
		if ol.len() == 0 {
			continue
		}
		row := s.row(r)
		r++
		// A log in enter order meets the atoms in order: a cursor that
		// only moves forward finds each op's atom, and a log that goes
		// backwards is searched.
		at := 0
		for _, pg := range ol {
			for _, op := range pg {
				if starts[at] <= op.Enter {
					for at+1 < nAtoms && starts[at+1] <= op.Enter {
						at++
					}
				} else {
					at = atomOf(op.Enter)
				}
				row[at+1].sum += mix64(op.Sig)
				row[at+1].cnt++
				kinds.add(at, op.Sig)
			}
		}
		for a := 1; a <= nAtoms; a++ {
			row[a].sum += row[a-1].sum
			row[a].cnt += row[a-1].cnt
		}
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

	for _, th := range distinct {
		s.cutAt(gaps, th)
		if len(s.cuts) == 0 {
			break // coarser thresholds only remove more cuts
		}
		if pre, post, ok := s.accept(); ok {
			return s.build(segs, &kinds, pre, post)
		}
	}
	// No periodic partition: fall back to the finest silence partition
	// so the artifact still resolves the run's covered spans.
	s.cutAt(gaps, 0)
	return s.build(segs, &kinds, 0, 0)
}

// build assembles the Segmentation for the candidate, accepted with the
// given trim.
func (s *search) build(segs []interval, atomKinds *kindSets, pre, post int) *Segmentation {
	cuts := s.cuts
	k := len(cuts) + 1
	sg := &Segmentation{
		Bounds: make([]float64, 0, k+1),
		Sigs:   make([]uint64, k),
		Kinds:  make([]uint64, k),
		Counts: make([]int, k),
		Pre:    pre,
		Post:   post,
	}
	sg.Bounds = append(sg.Bounds, segs[0].a)
	for _, c := range cuts {
		sg.Bounds = append(sg.Bounds, (segs[c].b+segs[c+1].a)/2)
	}
	sg.Bounds = append(sg.Bounds, segs[len(segs)-1].b)

	for r := 0; r < s.ranks; r++ {
		for i, t := range s.phases(r) {
			sg.Sigs[i] += t.sum
			sg.Counts[i] += t.cnt
		}
	}
	// Structural signatures: XOR over the distinct region-name hashes
	// of each phase (set semantics — merging atoms unions the sets).
	next, phase := 0, 0
	var kinds []uint64
	flush := func() {
		var h uint64
		for _, sig := range kinds {
			h ^= mix64(sig)
		}
		sg.Kinds[phase] = h
		phase++
		kinds = kinds[:0]
	}
	for a := 0; a < s.nAtoms; a++ {
		for i := atomKinds.head[a]; i != 0; i = atomKinds.nodes[i-1].next {
			kinds = addKind(kinds, atomKinds.nodes[i-1].sig)
		}
		if next < len(cuts) && cuts[next] == a {
			flush()
			next++
		}
	}
	flush()

	core := s.seq[:0]
	for i := pre; i < k-post; i++ {
		core = append(core, rankAtom{sum: sg.Sigs[i], cnt: sg.Counts[i]})
	}
	sg.Period = s.period(core)
	return sg
}
