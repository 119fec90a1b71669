package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes one local trace file: event mix, local-clock span,
// communication volume, and per-region visit counts. The metascope trace tool
// prints it; tests use it to sanity-check generated traces.
type Stats struct {
	Loc      Location
	Events   int
	ByKind   map[EventKind]int
	Duration float64 // local-clock span first→last event

	Messages  int // point-to-point receives (matched messages)
	BytesSent int64
	BytesRecv int64
	CollOps   map[CollOp]int

	// PeerMessages counts point-to-point messages per communicator
	// peer (sends + receives), keyed by (comm, peer-rank).
	PeerMessages map[[2]int32]int

	// RegionVisits counts Enter events per region name.
	RegionVisits map[string]int
	MaxDepth     int
}

// Stats computes the summary in one pass.
func (t *Trace) Stats() *Stats {
	s := &Stats{
		Loc:          t.Loc,
		Events:       len(t.Events),
		ByKind:       make(map[EventKind]int),
		CollOps:      make(map[CollOp]int),
		PeerMessages: make(map[[2]int32]int),
		RegionVisits: make(map[string]int),
		Duration:     t.Duration(),
	}
	names := make(map[RegionID]string, len(t.Regions))
	for _, r := range t.Regions {
		names[r.ID] = r.Name
	}
	depth := 0
	for i := range t.Events {
		ev := &t.Events[i]
		s.ByKind[ev.Kind]++
		switch ev.Kind {
		case KindEnter:
			depth++
			if depth > s.MaxDepth {
				s.MaxDepth = depth
			}
			s.RegionVisits[names[ev.Region]]++
		case KindExit:
			depth--
		case KindSend:
			s.BytesSent += ev.Bytes
			s.PeerMessages[[2]int32{ev.Comm, ev.Peer}]++
		case KindRecv:
			s.Messages++
			s.BytesRecv += ev.Bytes
			s.PeerMessages[[2]int32{ev.Comm, ev.Peer}]++
		case KindCollExit:
			s.CollOps[ev.Coll]++
		}
	}
	return s
}

// Format renders the summary as a human-readable block.
func (s *Stats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", s.Loc)
	fmt.Fprintf(&b, "  events          %d (enter %d, exit %d, send %d, recv %d, collexit %d)\n",
		s.Events, s.ByKind[KindEnter], s.ByKind[KindExit],
		s.ByKind[KindSend], s.ByKind[KindRecv], s.ByKind[KindCollExit])
	fmt.Fprintf(&b, "  local-clock span %.6f s, max nesting depth %d\n", s.Duration, s.MaxDepth)
	fmt.Fprintf(&b, "  p2p             %d sends / %d recvs, %d B out / %d B in\n",
		s.ByKind[KindSend], s.Messages, s.BytesSent, s.BytesRecv)
	if len(s.CollOps) > 0 {
		ops := make([]string, 0, len(s.CollOps))
		for op, n := range s.CollOps {
			ops = append(ops, fmt.Sprintf("%s x%d", op, n))
		}
		sort.Strings(ops)
		fmt.Fprintf(&b, "  collectives     %s\n", strings.Join(ops, ", "))
	}
	if len(s.RegionVisits) > 0 {
		type rv struct {
			name string
			n    int
		}
		var list []rv
		for name, n := range s.RegionVisits {
			list = append(list, rv{name, n})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].n != list[j].n {
				return list[i].n > list[j].n
			}
			return list[i].name < list[j].name
		})
		b.WriteString("  region visits:\n")
		for _, r := range list {
			fmt.Fprintf(&b, "    %-28s %d\n", r.name, r.n)
		}
	}
	return b.String()
}

// Dump renders the raw event stream, one line per event, for
// debugging. limit bounds the number of lines (0 = all).
func (t *Trace) Dump(limit int) string {
	names := make(map[RegionID]string, len(t.Regions))
	for _, r := range t.Regions {
		names[r.ID] = r.Name
	}
	var b strings.Builder
	depth := 0
	for i := range t.Events {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&b, "... %d more events\n", len(t.Events)-i)
			break
		}
		ev := &t.Events[i]
		indent := strings.Repeat("  ", depth)
		switch ev.Kind {
		case KindEnter:
			fmt.Fprintf(&b, "%14.6f %sENTER %s\n", ev.Time, indent, names[ev.Region])
			depth++
		case KindExit:
			if depth > 0 {
				depth--
			}
			fmt.Fprintf(&b, "%14.6f %sEXIT  %s\n", ev.Time, strings.Repeat("  ", depth), names[ev.Region])
		case KindSend:
			fmt.Fprintf(&b, "%14.6f %sSEND  comm=%d dst=%d tag=%d bytes=%d\n",
				ev.Time, indent, ev.Comm, ev.Peer, ev.Tag, ev.Bytes)
		case KindRecv:
			fmt.Fprintf(&b, "%14.6f %sRECV  comm=%d src=%d tag=%d bytes=%d\n",
				ev.Time, indent, ev.Comm, ev.Peer, ev.Tag, ev.Bytes)
		case KindCollExit:
			fmt.Fprintf(&b, "%14.6f %sCOLL  %s comm=%d root=%d bytes=%d\n",
				ev.Time, indent, ev.Coll, ev.Comm, ev.Root, ev.Bytes)
		}
	}
	return b.String()
}
