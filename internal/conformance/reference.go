package conformance

// The reference analyzer: the merged-trace pattern search that the
// paper's parallel replay replaced (KOJAK/EXPERT), written again by hand
// so that the replay's answers can be checked against a second reading
// of the same traces. It shares only the trace model (internal/trace),
// the severity predicates (internal/pattern) and the clock corrections
// (internal/vclock) with internal/replay: no scheduler, no mailbox, no
// gather, no ledger. It is naive on purpose — every event of every rank
// in one sorted slice, one goroutine, messages and collective instances
// collected first and scored afterwards — and meant for worlds of a few
// dozen ranks.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"metascope/internal/cube"
	"metascope/internal/pattern"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// Cell is one severity of an analysis: a wait-state pattern at a call
// path (region names from the root, joined as cube.PathString joins
// them) on one rank. A grid pattern's severity is split by metahost
// pair, the two metahost ids of its instances, low first; every other
// pattern carries Pair {-1, -1}.
type Cell struct {
	Pattern pattern.ID
	Path    string
	Rank    int
	Pair    [2]int
}

func (c Cell) String() string {
	s := fmt.Sprintf("%s at %q on rank %d", c.Pattern, c.Path, c.Rank)
	if c.Pair[0] >= 0 {
		s += fmt.Sprintf(" (metahosts %d-%d)", c.Pair[0], c.Pair[1])
	}
	return s
}

// Reference is what the reference analyzer finds in a world: every
// nonzero severity cell, and the counts the replay reports too.
type Reference struct {
	Cells       map[Cell]float64
	Messages    int // matched receives
	Collectives int // collective exits, one per member and instance
	Violations  int // receives corrected to before their send
}

// refEvent is one event of the merged stream: its corrected time, its
// rank and its index in the rank's trace.
type refEvent struct {
	t    float64
	rank int
	i    int
}

// refMessage is one point-to-point message as both ends saw it.
type refMessage struct {
	src, dst                     int
	bytes                        int64
	sendEvent, sendEnter, sendEx float64 // corrected; sendEx is the send region's exit
	sendPath                     string
	sent, recvd                  bool
	recvEvent, recvEnter         float64
	recvPath                     string
	recvSeq                      int // the receive's place among dst's receives
}

// refMember is one member's part in one collective instance.
type refMember struct {
	enter, done float64
	op          trace.CollOp
	root        int32
	path        string
}

// refFrame is an open region on a rank's stack.
type refFrame struct {
	enter float64
	path  string
	sends []*refMessage // the messages sent inside the region
}

// ReferenceAnalyze runs the reference pattern search over a complete
// world of preloaded traces, rank r's time stamps mapped by corr[r] — a
// scheme's corrections (referenceCorrections) or the simulator's true
// clocks — with messages above eagerLimit bytes taken as rendezvous ones
// (eligible for Late Receiver). It assumes the traces are valid and does
// not repair time stamps.
func ReferenceAnalyze(traces []*trace.Trace, corr []vclock.LinearMap, eagerLimit int) (*Reference, error) {
	n := len(traces)
	if len(corr) != n {
		return nil, fmt.Errorf("reference: %d corrections for %d traces", len(corr), n)
	}
	names := make([]map[trace.RegionID]string, n)
	mh := make([]int, n)
	comms := map[int32][]int32{}
	var merged []refEvent
	for r, t := range traces {
		if t.Loc.Rank != r {
			return nil, fmt.Errorf("reference: trace %d holds rank %d", r, t.Loc.Rank)
		}
		m := corr[r]
		mh[r] = t.Loc.Metahost
		names[r] = map[trace.RegionID]string{}
		for _, reg := range t.Regions {
			names[r][reg.ID] = reg.Name
		}
		for _, cd := range t.Comms {
			comms[cd.ID] = cd.Ranks
		}
		for i, ev := range t.Events {
			merged = append(merged, refEvent{t: m.Apply(ev.Time), rank: r, i: i})
		}
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].t < merged[b].t })

	// One walk over the merged stream: each rank's region stack, messages
	// paired by (communicator, source, destination, tag) in order, and
	// collective instances numbered per communicator and member.
	var msgs []*refMessage
	queues := map[[4]int32][]*refMessage{}   // messages one side of which is still to come
	colls := map[[2]int]map[int]*refMember{} // (communicator, instance) → member rank → part
	collSeq := map[[2]int32]int{}            // (communicator, world rank) → next instance
	stacks := make([][]refFrame, n)
	recvs := make([]int, n)
	commRank := func(comm int32, world int) int32 {
		for k, r := range comms[comm] {
			if int(r) == world {
				return int32(k)
			}
		}
		return -1
	}
	for _, me := range merged {
		r, ev := me.rank, &traces[me.rank].Events[me.i]
		st := stacks[r]
		switch ev.Kind {
		case trace.KindEnter:
			path := names[r][ev.Region]
			if len(st) > 0 {
				path = cube.PathString([]string{st[len(st)-1].path, path})
			}
			stacks[r] = append(st, refFrame{enter: me.t, path: path})
		case trace.KindExit:
			if len(st) == 0 {
				return nil, fmt.Errorf("reference: rank %d exits a region it never entered", r)
			}
			for _, m := range st[len(st)-1].sends {
				m.sendEx = me.t
			}
			stacks[r] = st[:len(st)-1]
		case trace.KindSend, trace.KindRecv:
			if len(st) == 0 {
				return nil, fmt.Errorf("reference: rank %d communicates outside a region", r)
			}
			members := comms[ev.Comm]
			if ev.Peer < 0 || int(ev.Peer) >= len(members) {
				return nil, fmt.Errorf("reference: rank %d names rank %d of communicator %d", r, ev.Peer, ev.Comm)
			}
			peer := int(members[ev.Peer])
			top := &st[len(st)-1]
			if ev.Kind == trace.KindSend {
				m := pairFor(queues, &msgs, ev.Comm, r, peer, ev.Tag, true)
				m.sent, m.bytes = true, ev.Bytes
				m.sendEvent, m.sendEnter, m.sendPath = me.t, top.enter, top.path
				top.sends = append(top.sends, m)
			} else {
				m := pairFor(queues, &msgs, ev.Comm, peer, r, ev.Tag, false)
				m.recvd = true
				m.recvEvent, m.recvEnter, m.recvPath = me.t, top.enter, top.path
				m.recvSeq = recvs[r]
				recvs[r]++
			}
		case trace.KindCollExit:
			if len(st) == 0 {
				return nil, fmt.Errorf("reference: rank %d leaves a collective outside a region", r)
			}
			k := commRank(ev.Comm, r)
			if k < 0 {
				return nil, fmt.Errorf("reference: rank %d is no member of communicator %d", r, ev.Comm)
			}
			seqKey := [2]int32{ev.Comm, int32(r)}
			inst := [2]int{int(ev.Comm), collSeq[seqKey]}
			collSeq[seqKey]++
			if colls[inst] == nil {
				colls[inst] = map[int]*refMember{}
			}
			top := st[len(st)-1]
			colls[inst][int(k)] = &refMember{enter: top.enter, done: me.t, op: ev.Coll, root: ev.Root, path: top.path}
		}
	}

	ref := &Reference{Cells: map[Cell]float64{}}
	add := func(p pattern.ID, path string, rank int, v float64) {
		if v > 0 {
			ref.Cells[Cell{Pattern: p, Path: path, Rank: rank, Pair: [2]int{-1, -1}}] += v
		}
	}
	addGrid := func(p pattern.ID, path string, rank, other int, v float64) {
		if v > 0 {
			a, b := mh[rank], mh[other]
			ref.Cells[Cell{Pattern: p, Path: path, Rank: rank, Pair: [2]int{min(a, b), max(a, b)}}] += v
		}
	}

	// Point-to-point patterns. A receive waits from its enter until the
	// send's enter (Late Sender); a rendezvous send waits from its enter
	// until the receive's (Late Receiver). An intra-metahost Late Sender
	// whose receiver later takes a message that was sent earlier than this
	// one and before this receive was posted is a Message in Wrong Order.
	byRecv := make([][]*refMessage, n)
	for _, m := range msgs {
		if !m.sent || !m.recvd {
			return nil, fmt.Errorf("reference: a message from rank %d to rank %d has only one side", m.src, m.dst)
		}
		byRecv[m.dst] = append(byRecv[m.dst], m)
	}
	for dst, ms := range byRecv {
		sort.Slice(ms, func(a, b int) bool { return ms[a].recvSeq < ms[b].recvSeq })
		for i, m := range ms {
			ref.Messages++
			if m.recvEvent < m.sendEvent {
				ref.Violations++
			}
			if ls := pattern.LateSenderWait(m.sendEnter, m.recvEnter, m.recvEvent); ls > 0 {
				switch {
				case mh[m.src] != mh[dst]:
					addGrid(pattern.GridLateSender, m.recvPath, dst, m.src, ls)
				case wrongOrder(ls, m, ms[i+1:]):
					add(pattern.WrongOrder, m.recvPath, dst, ls)
				default:
					add(pattern.LateSender, m.recvPath, dst, ls)
				}
			}
			if m.bytes > int64(eagerLimit) {
				lr := pattern.LateReceiverWait(m.recvEnter, m.sendEnter, m.sendEx)
				if mh[m.src] != mh[dst] {
					addGrid(pattern.GridLateReceiver, m.sendPath, m.src, dst, lr)
				} else {
					add(pattern.LateReceiver, m.sendPath, m.src, lr)
				}
			}
		}
	}

	// Collective patterns, per member of each complete instance.
	for inst, parts := range colls {
		members := comms[int32(inst[0])]
		if len(parts) != len(members) {
			return nil, fmt.Errorf("reference: collective %d of communicator %d has %d of %d members",
				inst[1], inst[0], len(parts), len(members))
		}
		spans := false
		for _, w := range members {
			spans = spans || mh[w] != mh[members[0]]
		}
		// The latest enter, first member holding it; the earliest enter of
		// a member other than a root, first member holding it.
		latest := 0
		for k := range members {
			if parts[k].enter > parts[latest].enter {
				latest = k
			}
		}
		earliestBut := func(root int) int {
			best := -1
			for k := range members {
				if k != root && (best < 0 || parts[k].enter < parts[best].enter) {
					best = k
				}
			}
			return best
		}
		for k, w := range members {
			me := parts[k]
			rank := int(w)
			ref.Collectives++
			wait := func(p pattern.ID, cause int, v float64) {
				if spans {
					addGrid(p.Gridded(), me.path, rank, int(members[cause]), v)
				} else {
					add(p, me.path, rank, v)
				}
			}
			cause := k
			if parts[latest].enter > me.enter {
				cause = latest
			}
			maxEnter := parts[latest].enter
			switch {
			case me.op == trace.CollBarrier:
				wait(pattern.WaitBarrier, cause, pattern.WaitAtBarrierWait(maxEnter, me.enter, me.done))
				add(pattern.BarrierCompletion, me.path, rank, pattern.BarrierCompletionWait(maxEnter, me.enter, me.done))
			case me.op.IsNxN():
				wait(pattern.WaitNxN, cause, pattern.WaitAtNxNWait(maxEnter, me.enter, me.done))
				add(pattern.NxNCompletion, me.path, rank, pattern.NxNCompletionWait(maxEnter, me.enter, me.done))
			case me.op.IsNToOne():
				if int(me.root) == k {
					if o := earliestBut(k); o >= 0 {
						wait(pattern.EarlyReduce, o, pattern.EarlyReduceWait(parts[o].enter, me.enter, me.done))
					}
				}
			case me.op.IsOneToN():
				if int(me.root) != k {
					wait(pattern.LateBroadcast, int(me.root), pattern.LateBroadcastWait(parts[int(me.root)].enter, me.enter, me.done))
				}
			}
		}
	}
	return ref, nil
}

// pairFor returns the message of signature (comm, src, dst, tag) that
// this side — the send when send is set, else the receive — pairs with:
// the oldest one whose other side arrived without it, or a new one. MPI
// does not let messages of one signature overtake each other, so the
// n-th send pairs with the n-th receive whichever of the two the merged
// stream shows first.
func pairFor(queues map[[4]int32][]*refMessage, msgs *[]*refMessage, comm int32, src, dst int, tag int32, send bool) *refMessage {
	key := [4]int32{comm, int32(src), int32(dst), tag}
	q := queues[key]
	if len(q) > 0 && q[0].sent != send {
		m := q[0]
		queues[key] = q[1:]
		return m
	}
	m := &refMessage{src: src, dst: dst}
	queues[key] = append(q, m)
	*msgs = append(*msgs, m)
	return m
}

// wrongOrder reports whether a Late Sender wait ls of message m is a
// Message in Wrong Order: some message its receiver takes later was sent
// before m and before m's receive was posted.
func wrongOrder(ls float64, m *refMessage, later []*refMessage) bool {
	for _, o := range later {
		if pattern.WrongOrderCandidate(ls, m.sendEvent, o.sendEvent, m.recvEnter) {
			return true
		}
	}
	return false
}

// referenceCorrections derives each rank's time correction under scheme
// from the measurements in its own trace.
func referenceCorrections(traces []*trace.Trace, scheme vclock.Scheme) ([]vclock.LinearMap, error) {
	out := make([]vclock.LinearMap, len(traces))
	for r, t := range traces {
		var err error
		if scheme == vclock.Hierarchical {
			out[r] = vclock.HierarchicalCorrection(vclock.HierarchicalInput{
				Rank:            t.Loc.Rank,
				SlaveStart:      t.Sync.LocalStart,
				SlaveEnd:        t.Sync.LocalEnd,
				MasterStart:     t.Sync.MasterStart,
				MasterEnd:       t.Sync.MasterEnd,
				SharedNodeClock: t.Sync.SharedNodeClock,
			})
		} else if out[r], err = vclock.FlatCorrection(scheme, t.Sync.FlatStart, t.Sync.FlatEnd); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReportCells reads a report's wait-state severities as cells: the
// patterns' own metrics, and a grid pattern's per-metahost-pair children
// (key "<pattern key>.pair.<low>-<high>"). Zero cells are left out.
func ReportCells(rep *cube.Report) (map[Cell]float64, error) {
	byKey := map[string]pattern.ID{}
	for p := pattern.ID(0); p < pattern.NumPatterns; p++ {
		byKey[p.MetricKey()] = p
	}
	out := map[Cell]float64{}
	for m, met := range rep.Metrics {
		key, pair := met.Key, [2]int{-1, -1}
		if base, ids, ok := strings.Cut(key, ".pair."); ok {
			lo, hi, ok := strings.Cut(ids, "-")
			a, errA := strconv.Atoi(lo)
			b, errB := strconv.Atoi(hi)
			if !ok || errA != nil || errB != nil {
				return nil, fmt.Errorf("reference: metric key %q names no metahost pair", key)
			}
			key, pair = base, [2]int{a, b}
		}
		p, ok := byKey[key]
		if !ok {
			continue
		}
		for c := range rep.Calls {
			path := cube.PathString(rep.CallPath(c))
			for l, loc := range rep.Locs {
				if v := rep.Value(m, c, l); v != 0 {
					out[Cell{Pattern: p, Path: path, Rank: loc.Rank, Pair: pair}] += v
				}
			}
		}
	}
	return out, nil
}

// CellMismatch is one cell on which an analysis and the reference
// disagree beyond the tolerance.
type CellMismatch struct {
	Cell           Cell
	Got, Want, Tol float64
}

func (m CellMismatch) String() string {
	return fmt.Sprintf("%v: got %.12g, want %.12g (±%.3g)", m.Cell, m.Got, m.Want, m.Tol)
}

// Compare checks every cell of got against the reference within tol,
// in a fixed order: cells either side holds, the other reading zero.
func (ref *Reference) Compare(got map[Cell]float64, tol Tolerance) []CellMismatch {
	keys := make([]Cell, 0, len(got)+len(ref.Cells))
	for c := range got {
		keys = append(keys, c)
	}
	for c := range ref.Cells {
		if _, ok := got[c]; !ok {
			keys = append(keys, c)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		x, y := keys[a], keys[b]
		if x.Rank != y.Rank {
			return x.Rank < y.Rank
		}
		if x.Pattern != y.Pattern {
			return x.Pattern < y.Pattern
		}
		if x.Path != y.Path {
			return x.Path < y.Path
		}
		return x.Pair[0] < y.Pair[0] || x.Pair[0] == y.Pair[0] && x.Pair[1] < y.Pair[1]
	})
	var out []CellMismatch
	for _, c := range keys {
		g, w := got[c], ref.Cells[c]
		if math.Abs(g-w) > tol.For(w) {
			out = append(out, CellMismatch{Cell: c, Got: g, Want: w, Tol: tol.For(w)})
		}
	}
	return out
}
