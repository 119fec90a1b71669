package trace

import (
	"encoding/binary"
	"fmt"
)

// A communicator's member list travels as runs: a run (start, count,
// stride) stands for the world ranks start, start+stride, …,
// start+(count−1)·stride. The world and every regularly strided
// sub-communicator are one run, so a header costs O(1) bytes per
// communicator however many ranks the run has. A header marks the run
// form with flagCommRuns in its sync flags byte; an image without the
// flag lists every member, as images written before run coding do, and
// decodes to the same Trace.
type run struct {
	start, stride int64
	count         int64
}

// Sync flags byte. A bit outside flagsKnown is refused.
const (
	flagSharedClock = 1 << 0
	flagCommRuns    = 1 << 1
	flagsKnown      = flagSharedClock | flagCommRuns
)

// minRunBytes is the minimum encoded size of one run: three varints.
const minRunBytes = 3

// maxMembers bounds the communicator members one decoded image, or one
// Interner across every image it serves, may expand: runs let a few
// header bytes declare millions of members, and a hostile header gets an
// error, not the allocation.
const maxMembers = 1 << 20

// runs is a member list in its canonical run form: the greedy split the
// writer emits, in which a run takes the next member while the stride
// holds and a run of one takes any next member. Equal member lists have
// equal canonical forms, which is what the Interner keys them by.
type runs []run

// push appends member x.
func (rs runs) push(x int64) runs {
	if n := len(rs); n > 0 {
		r := &rs[n-1]
		if r.count == 1 {
			r.stride, r.count = x-r.start, 2
			return rs
		}
		if x == r.start+r.count*r.stride {
			r.count++
			return rs
		}
	}
	return append(rs, run{start: x, count: 1})
}

// pushRun appends the members of r, pushed one by one only until the
// last canonical run continues with r's stride: at most three pushes,
// however long r is.
func (rs runs) pushRun(r run) runs {
	for k := int64(0); k < r.count; k++ {
		x := r.start + k*r.stride
		if n := len(rs); n > 0 {
			last := &rs[n-1]
			if last.count >= 2 && last.stride == r.stride && x == last.start+last.count*last.stride {
				last.count += r.count - k
				return rs
			}
		}
		rs = rs.push(x)
	}
	return rs
}

// members expands the runs into a fresh slice of total members.
func (rs runs) members(total int64) []int32 {
	out := make([]int32, 0, total)
	for _, r := range rs {
		for k := int64(0); k < r.count; k++ {
			out = append(out, int32(r.start+k*r.stride))
		}
	}
	return out
}

// appendKey appends the interning key of communicator id with these
// canonical runs.
func (rs runs) appendKey(b []byte, id int32) []byte {
	b = binary.AppendVarint(b, int64(id))
	for _, r := range rs {
		b = binary.AppendVarint(b, r.start)
		b = binary.AppendVarint(b, r.count)
		b = binary.AppendVarint(b, r.stride)
	}
	return b
}

// encodeComms writes the communicator definitions, each member list as
// its canonical runs, or member by member under explicitComms.
func (e *encoder) encodeComms(comms []CommDef) {
	e.u64(uint64(len(comms)))
	for _, cd := range comms {
		e.i64(int64(cd.ID))
		if e.explicitComms {
			e.u64(uint64(len(cd.Ranks)))
			for _, r := range cd.Ranks {
				e.i64(int64(r))
			}
			continue
		}
		e.runs = e.runs[:0]
		for _, r := range cd.Ranks {
			e.runs = e.runs.push(int64(r))
		}
		e.u64(uint64(len(e.runs)))
		for _, r := range e.runs {
			e.i64(r.start)
			e.u64(uint64(r.count))
			e.i64(r.stride)
		}
	}
}

// decodeComms reads the communicator definitions in the form flags
// names. Each member list is read into its canonical runs; with an
// interner, traces share one member slice per distinct (id, members) and
// only a communicator the interner has not seen is expanded, so a rank
// costs O(1) per communicator however large the world.
func (d *decoder) decodeComms(flags byte) ([]CommDef, error) {
	nc := d.u64()
	if !d.checkCount("communicator", nc, minCommBytes, maxCommCount) {
		return nil, d.err
	}
	comms := make([]CommDef, nc)
	var buf [4]run // most member lists are a run or two
	var expanded int64
	for i := range comms {
		id := int32(d.i64())
		rs := runs(buf[:0])
		var total int64
		if flags&flagCommRuns == 0 {
			nm := d.u64()
			if !d.checkCount("communicator member", nm, minRankBytes, maxMembers) {
				return nil, d.err
			}
			for range nm {
				rs = rs.push(int64(int32(d.i64())))
			}
			total = int64(nm)
		} else {
			nr := d.u64()
			if !d.checkCount("communicator run", nr, minRunBytes, maxMembers) {
				return nil, d.err
			}
			for j := range nr {
				start, count, stride := d.i64(), d.u64(), d.i64()
				if d.err != nil {
					return nil, d.err
				}
				if count > uint64(maxMembers-total) {
					return nil, tooManyMembers(id, "image")
				}
				r := run{start: start, count: int64(count), stride: stride}
				if !inRank(r.start) || r.stride < -maxStride || r.stride > maxStride ||
					!inRank(r.start+max(r.count-1, 0)*r.stride) {
					return nil, fmt.Errorf("trace: communicator %d run %d leaves the rank range", id, j)
				}
				total += r.count
				rs = rs.pushRun(r)
			}
		}
		if d.err != nil {
			return nil, d.err
		}
		var ranks []int32
		var err error
		if in := d.intern; in != nil {
			var key [64]byte
			ranks, err = in.comm(rs.appendKey(key[:0], id), rs, total, id)
		} else if total > maxMembers-expanded {
			err = tooManyMembers(id, "image")
		} else {
			expanded += total
			ranks = rs.members(total)
		}
		if err != nil {
			return nil, err
		}
		comms[i] = CommDef{ID: id, Ranks: ranks}
	}
	return comms, nil
}

// maxStride is the largest stride between two int32 ranks.
const maxStride = 1<<32 - 1

// inRank reports whether x is an int32 rank.
func inRank(x int64) bool { return x == int64(int32(x)) }

func tooManyMembers(id int32, scope string) error {
	return fmt.Errorf("trace: communicator %d passes the limit of %d members expanded per %s", id, maxMembers, scope)
}

// comm returns the one member slice of the communicator keyed by key
// (appendKey), expanding rs on first sight within the interner's budget.
func (in *Interner) comm(key []byte, rs runs, total int64, id int32) ([]int32, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if m, ok := in.comms[string(key)]; ok {
		return m, nil
	}
	if total > maxMembers-in.members {
		return nil, tooManyMembers(id, "analysis")
	}
	in.members += total
	m := rs.members(total)
	in.comms[string(key)] = m
	return m, nil
}
