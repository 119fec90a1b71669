package conformance

// Metamorphic trace transformations: rewrites of a decoded archive that
// must leave per-rank severities unchanged. Each returns fresh Trace
// values (sharing immutable event slices where the transform does not
// touch them) so the originals stay valid for the baseline analysis.

import (
	"fmt"

	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// RenumberMetahosts relabels metahost ids under a bijection. Metahost
// names travel with their id (every rank of an old id keeps its name
// under the new id), so the id↔name mapping stays consistent; only the
// numbering changes. Grid classification depends solely on whether two
// ids differ, which a bijection preserves, so severities must not move.
func RenumberMetahosts(traces []*trace.Trace, perm map[int]int) []*trace.Trace {
	if err := checkBijection(perm); err != nil {
		panic(err)
	}
	out := make([]*trace.Trace, len(traces))
	for i, t := range traces {
		nt := *t
		nh, ok := perm[t.Loc.Metahost]
		if !ok {
			panic(fmt.Sprintf("conformance: metahost %d missing from renumbering", t.Loc.Metahost))
		}
		nt.Loc.Metahost = nh
		out[i] = &nt
	}
	return out
}

// RelabelRanks renumbers ranks under the permutation perm (new rank =
// perm[old rank]): trace i moves to index perm[i], its location rank
// and synchronization master ranks are rewritten, and every
// communicator membership table is rewritten identically in all
// traces. Event Peer and Root fields are communicator-local and need no
// rewrite. Each trace carries its own offset measurements, so the
// clock corrections — and therefore the severities, now attributed at
// the relabeled ranks — must not change value.
func RelabelRanks(traces []*trace.Trace, perm []int) []*trace.Trace {
	if len(perm) != len(traces) {
		panic(fmt.Sprintf("conformance: permutation over %d ranks for %d traces", len(perm), len(traces)))
	}
	m := make(map[int]int, len(perm))
	for old, nw := range perm {
		m[old] = nw
	}
	if err := checkBijection(m); err != nil {
		panic(err)
	}
	out := make([]*trace.Trace, len(traces))
	for old, t := range traces {
		nt := *t
		nt.Loc.Rank = perm[old]
		nt.Sync.GlobalMasterRank = perm[t.Sync.GlobalMasterRank]
		nt.Sync.LocalMasterRank = perm[t.Sync.LocalMasterRank]
		comms := make([]trace.CommDef, len(t.Comms))
		for i, c := range t.Comms {
			ranks := make([]int32, len(c.Ranks))
			for j, r := range c.Ranks {
				ranks[j] = int32(perm[int(r)])
			}
			comms[i] = trace.CommDef{ID: c.ID, Ranks: ranks}
		}
		nt.Comms = comms
		out[perm[old]] = &nt
	}
	return out
}

// ShiftEventTimes adds delta to every event timestamp and every
// synchronization measurement point of every trace — the whole run
// observed through clocks started delta later. Offsets between clocks
// are untouched, so corrected severities must not change.
func ShiftEventTimes(traces []*trace.Trace, delta float64) []*trace.Trace {
	out := make([]*trace.Trace, len(traces))
	for i, t := range traces {
		nt := *t
		evs := make([]trace.Event, len(t.Events))
		for j, ev := range t.Events {
			ev.Time += delta
			evs[j] = ev
		}
		nt.Events, nt.Tally = evs, trace.Tally{} // new events: the analyzer checks them again
		sy := t.Sync
		for _, m := range []*vclock.Measurement{
			&sy.FlatStart, &sy.FlatEnd,
			&sy.LocalStart, &sy.LocalEnd,
			&sy.MasterStart, &sy.MasterEnd,
		} {
			m.Local += delta
		}
		nt.Sync = sy
		out[i] = &nt
	}
	return out
}

func checkBijection(perm map[int]int) error {
	seen := make(map[int]bool, len(perm))
	for _, v := range perm {
		if seen[v] {
			return fmt.Errorf("conformance: permutation maps two ids to %d", v)
		}
		seen[v] = true
	}
	return nil
}
