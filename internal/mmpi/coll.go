package mmpi

import (
	"fmt"
	"math"
	"sort"
)

// collKind identifies the collective operation being timed. The
// measurement layer records the corresponding MPI region name; this
// enum is internal to the timing model.
type collKind int

const (
	collBarrier collKind = iota
	collBcast
	collReduce
	collAllreduce
	collGather
	collScatter
	collAllgather
	collAlltoall
	collReduceScatter
	collSplit
)

func (k collKind) String() string {
	switch k {
	case collBarrier:
		return "Barrier"
	case collBcast:
		return "Bcast"
	case collReduce:
		return "Reduce"
	case collAllreduce:
		return "Allreduce"
	case collGather:
		return "Gather"
	case collScatter:
		return "Scatter"
	case collAllgather:
		return "Allgather"
	case collAlltoall:
		return "Alltoall"
	case collReduceScatter:
		return "Reduce_scatter"
	case collSplit:
		return "Split"
	default:
		return fmt.Sprintf("collKind(%d)", int(k))
	}
}

type collKey struct {
	comm int
	seq  int
}

type collSeqKey struct {
	comm int
	rank int // communicator rank
}

type collState struct {
	kind    collKind
	comm    int
	root    int
	bytes   int
	enters  []float64
	procs   []*Proc
	arrived int
	// split bookkeeping
	colors, keys []int
	result       []*commGroup // per comm rank, filled by finishSplit
}

// collective registers the calling process at a collective operation
// and blocks until the operation's timing model says it may leave.
// Every member of the communicator must call collectives in the same
// order with matching kind/root/bytes; mismatches panic, mirroring the
// undefined behaviour such programs have under real MPI.
func (c *Comm) collective(kind collKind, root, bytes int) *collState {
	w := c.p.w
	sk := collSeqKey{comm: c.group.id, rank: c.myRank}
	seq := w.collSeqs[sk]
	w.collSeqs[sk] = seq + 1

	key := collKey{comm: c.group.id, seq: seq}
	st, ok := w.colls[key]
	if !ok {
		st = &collState{
			kind: kind, comm: c.group.id, root: root, bytes: bytes,
			enters: make([]float64, c.Size()),
			procs:  make([]*Proc, c.Size()),
			colors: make([]int, c.Size()),
			keys:   make([]int, c.Size()),
		}
		for i := range st.enters {
			st.enters[i] = math.NaN()
		}
		w.colls[key] = st
	}
	if st.kind != kind || st.root != root || st.bytes != bytes {
		panic(fmt.Sprintf("mmpi: collective mismatch on comm %d op %d: rank %d calls %v(root=%d,bytes=%d), others %v(root=%d,bytes=%d)",
			c.group.id, seq, c.myRank, kind, root, bytes, st.kind, st.root, st.bytes))
	}
	st.enters[c.myRank] = c.p.Now()
	st.procs[c.myRank] = c.p
	st.arrived++
	if st.arrived == c.Size() {
		delete(w.colls, key) // state complete; free before resuming anyone
		if kind == collSplit {
			c.finishSplit(st)
		}
		exits := w.collExits(c.group, st)
		for i, p := range st.procs {
			p.sp.ResumeAt(exits[i])
		}
	}
	c.p.sp.Suspend(st)
	return st
}

// String is a member's wait reason, rendered for a deadlock report.
func (st *collState) String() string { return fmt.Sprintf("MPI_%v on comm %d", st.kind, st.comm) }

// collExits computes per-rank exit times for a completed
// fully-synchronizing collective (every process leaves after the
// latest entrant — the inherent synchronization behind Wait at N×N and
// Wait at Barrier), using the dissemination algorithm. Rooted
// operations (Bcast, Reduce, Gather, Scatter) are NOT timed here: they
// do not synchronize all participants, so they are executed as real
// binomial-tree point-to-point exchanges (see tree.go), which gives an
// early root or early leaf its correct, non-blocking exit for free.
func (w *World) collExits(g *commGroup, st *collState) []float64 {
	switch st.kind {
	case collBarrier:
		return w.dissemination(g, st.enters, func(int) int { return 0 })
	case collAllreduce:
		return w.dissemination(g, st.enters, func(int) int { return st.bytes })
	case collAllgather:
		return w.dissemination(g, st.enters, func(step int) int { return st.bytes * step })
	case collAlltoall:
		half := len(g.ranks) / 2
		if half < 1 {
			half = 1
		}
		return w.dissemination(g, st.enters, func(int) int { return st.bytes * half })
	case collReduceScatter:
		// Pairwise-exchange reduce-scatter: full vector halves per
		// round; approximate with a constant per-round payload.
		return w.dissemination(g, st.enters, func(int) int { return st.bytes })
	case collSplit:
		return w.dissemination(g, st.enters, func(int) int { return 8 })
	default:
		panic("mmpi: unknown synchronizing collective kind")
	}
}

// dissemination models the classic dissemination/recursive-doubling
// exchange: ceil(log2 n) rounds; in round r process i receives from
// (i − 2^r) mod n. payload(step) returns the per-round message size.
func (w *World) dissemination(g *commGroup, enters []float64, payload func(step int) int) []float64 {
	n := len(enters)
	t := append([]float64(nil), enters...)
	for step := 1; step < n; step *= 2 {
		nt := make([]float64, n)
		for i := 0; i < n; i++ {
			from := (i - step + n) % n
			a, b := g.ranks[from], g.ranks[i]
			lat := w.sampleLatency(a, b)
			xfer := w.transferTime(a, b, payload(step))
			arr := t[from] + lat + xfer
			nt[i] = math.Max(t[i], arr) + w.overhead(a, b)
		}
		t = nt
	}
	return t
}

// Barrier blocks until every member of the communicator has entered.
func (c *Comm) Barrier() { c.collective(collBarrier, 0, 0) }

// Allreduce combines bytes across all members and distributes the
// result — an n-to-n operation with inherent synchronization.
func (c *Comm) Allreduce(bytes int) { c.collective(collAllreduce, 0, bytes) }

// Allgather collects bytes from every member at every member.
func (c *Comm) Allgather(bytes int) { c.collective(collAllgather, 0, bytes) }

// Alltoall exchanges bytes between every pair of members.
func (c *Comm) Alltoall(bytes int) { c.collective(collAlltoall, 0, bytes) }

// ReduceScatter combines bytes across all members and scatters one
// block of the result to each — an n-to-n operation with inherent
// synchronization, like Allreduce.
func (c *Comm) ReduceScatter(bytes int) { c.collective(collReduceScatter, 0, bytes) }

// Split partitions the communicator by color, ordering ranks within
// each new communicator by (key, old rank), like MPI_Comm_split. A
// negative color returns nil (MPI_UNDEFINED). Split is collective.
func (c *Comm) Split(color, key int) *Comm {
	st := c.splitCollective(color, key)
	g := st.result[c.myRank]
	if g == nil {
		return nil
	}
	for i, gr := range g.ranks {
		if gr == c.p.rank {
			return &Comm{group: g, p: c.p, myRank: i}
		}
	}
	panic("mmpi: split result does not contain caller")
}

func (c *Comm) splitCollective(color, key int) *collState {
	w := c.p.w
	sk := collSeqKey{comm: c.group.id, rank: c.myRank}
	seq := w.collSeqs[sk]
	// record color/key before entering the shared collective path
	ck := collKey{comm: c.group.id, seq: seq}
	st, ok := w.colls[ck]
	if !ok {
		st = &collState{
			kind: collSplit,
			comm: c.group.id,
			enters: func() []float64 {
				e := make([]float64, c.Size())
				for i := range e {
					e[i] = math.NaN()
				}
				return e
			}(),
			procs:  make([]*Proc, c.Size()),
			colors: make([]int, c.Size()),
			keys:   make([]int, c.Size()),
			result: make([]*commGroup, c.Size()),
		}
		w.colls[ck] = st
	}
	st.colors[c.myRank] = color
	st.keys[c.myRank] = key
	// Re-enter through the normal collective path for timing/blocking.
	w.collSeqs[sk] = seq // undo; collective() will re-increment
	got := c.collective(collSplit, 0, 0)
	return got
}

// finishSplit builds the new communicator groups once every member has
// arrived. It runs exactly once, in the context of the last arriver.
func (c *Comm) finishSplit(st *collState) {
	w := c.p.w
	if st.result == nil {
		st.result = make([]*commGroup, c.Size())
	}
	colors := map[int][]int{} // color → comm ranks
	for r := 0; r < c.Size(); r++ {
		if st.colors[r] < 0 {
			continue
		}
		colors[st.colors[r]] = append(colors[st.colors[r]], r)
	}
	sorted := make([]int, 0, len(colors))
	for col := range colors {
		sorted = append(sorted, col)
	}
	sort.Ints(sorted)
	for _, col := range sorted {
		members := colors[col]
		sort.SliceStable(members, func(i, j int) bool {
			if st.keys[members[i]] != st.keys[members[j]] {
				return st.keys[members[i]] < st.keys[members[j]]
			}
			return members[i] < members[j]
		})
		g := &commGroup{id: len(w.comms), ranks: make([]int, len(members))}
		for i, r := range members {
			g.ranks[i] = c.group.ranks[r]
		}
		w.comms = append(w.comms, g)
		for _, r := range members {
			st.result[r] = g
		}
	}
}
