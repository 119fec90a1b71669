// Package trace defines the event model of the metascope measurement
// system and a compact binary file format for local trace files.
//
// The model follows KOJAK/SCALASCA's EPILOG conventions: a trace is a
// sequence of time-stamped events per process — Enter/Exit for code
// regions, Send/Recv for point-to-point messages, and CollExit closing
// a collective operation — plus a region table and the event location.
//
// The location of an event is the tuple (machine, node, process,
// thread) of §3; in a metacomputing run the machine component is the
// metahost. Time stamps are *local clock readings*: unsynchronized,
// drifting, and corrected only later by the analyzer (internal/vclock,
// internal/replay).
package trace

import (
	"cmp"
	"fmt"
	"slices"

	"metascope/internal/vclock"
)

// EventKind discriminates trace event records.
type EventKind uint8

// Event kinds.
const (
	KindEnter EventKind = iota + 1
	KindExit
	KindSend
	KindRecv
	KindCollExit
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case KindEnter:
		return "ENTER"
	case KindExit:
		return "EXIT"
	case KindSend:
		return "SEND"
	case KindRecv:
		return "RECV"
	case KindCollExit:
		return "COLLEXIT"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// RegionKind classifies regions for metric attribution.
type RegionKind uint8

// Region kinds: user code, point-to-point MPI, collective MPI, and
// other MPI (e.g. MPI_Init).
const (
	RegionUser RegionKind = iota
	RegionMPIP2P
	RegionMPIColl
	RegionMPIOther
)

// String names the region kind.
func (k RegionKind) String() string {
	switch k {
	case RegionUser:
		return "user"
	case RegionMPIP2P:
		return "mpi-p2p"
	case RegionMPIColl:
		return "mpi-coll"
	case RegionMPIOther:
		return "mpi-other"
	default:
		return fmt.Sprintf("RegionKind(%d)", int(k))
	}
}

// RegionID indexes the region table.
type RegionID uint32

// Region describes an instrumented code region (function).
type Region struct {
	ID   RegionID
	Name string
	Kind RegionKind
}

// CollOp identifies the collective operation recorded by a CollExit.
type CollOp uint8

// Collective operations.
const (
	CollNone CollOp = iota
	CollBarrier
	CollBcast
	CollReduce
	CollAllreduce
	CollGather
	CollScatter
	CollAllgather
	CollAlltoall
	CollReduceScatter
	CollScan
	CollCommSplit
)

// String names the collective operation.
func (c CollOp) String() string {
	switch c {
	case CollNone:
		return "none"
	case CollBarrier:
		return "MPI_Barrier"
	case CollBcast:
		return "MPI_Bcast"
	case CollReduce:
		return "MPI_Reduce"
	case CollAllreduce:
		return "MPI_Allreduce"
	case CollGather:
		return "MPI_Gather"
	case CollScatter:
		return "MPI_Scatter"
	case CollAllgather:
		return "MPI_Allgather"
	case CollAlltoall:
		return "MPI_Alltoall"
	case CollReduceScatter:
		return "MPI_Reduce_scatter"
	case CollScan:
		return "MPI_Scan"
	case CollCommSplit:
		return "MPI_Comm_split"
	default:
		return fmt.Sprintf("CollOp(%d)", int(c))
	}
}

// IsNxN reports whether the operation moves data from n processes to n
// processes, the class covered by the Wait at N×N pattern. Barriers
// are treated separately (Wait at Barrier) but share the inherent
// full synchronization. Scan is excluded: its prefix structure only
// partially synchronizes.
func (c CollOp) IsNxN() bool {
	switch c {
	case CollAllreduce, CollAllgather, CollAlltoall, CollReduceScatter:
		return true
	}
	return false
}

// IsOneToN reports a root-to-all operation (Late Broadcast class).
func (c CollOp) IsOneToN() bool { return c == CollBcast || c == CollScatter }

// IsNToOne reports an all-to-root operation (Early Reduce class).
func (c CollOp) IsNToOne() bool { return c == CollReduce || c == CollGather }

// Event is one trace record. Which fields are meaningful depends on
// Kind:
//
//	Enter/Exit: Time, Region
//	Send:       Time, Comm, Peer (destination, comm rank), Tag, Bytes
//	Recv:       Time, Comm, Peer (matched source, comm rank), Tag, Bytes
//	CollExit:   Time, Comm, Coll, Root (comm rank; -1 for rootless), Bytes
//
// The fields are ordered widest first so the struct packs into 40 bytes
// (TestEventSize): every resident event array and every lazy or live
// block is this struct times the event count.
type Event struct {
	Time   float64 // local clock reading
	Bytes  int64
	Region RegionID
	Comm   int32
	Peer   int32
	Tag    int32
	Root   int32
	Kind   EventKind
	Coll   CollOp
}

// Location identifies where a trace's events happened: the
// machine/node/process tuple of §3 with the machine component holding
// the metahost (id and human-readable name, per the paper's metahost
// identification mechanism).
type Location struct {
	Rank         int
	Metahost     int
	MetahostName string
	Node         int
	CPU          int
}

// String renders "name:rank@mh/node/cpu".
func (l Location) String() string {
	return fmt.Sprintf("%s:rank%d@%d/%d/%d", l.MetahostName, l.Rank, l.Metahost, l.Node, l.CPU)
}

// SyncData carries the offset measurements taken at program start and
// end, from which the analyzer builds any of the three time-stamp
// corrections. Storing both the flat and the hierarchical measurements
// lets one experiment be re-analyzed under every scheme (Table 2).
type SyncData struct {
	// GlobalMasterRank is the world rank hosting the reference clock
	// (rank 0's node, without loss of generality, §3).
	GlobalMasterRank int
	// LocalMasterRank is the metahost-local master this process
	// measured against under the hierarchical scheme.
	LocalMasterRank int
	// SharedNodeClock marks processes on the same node as their local
	// master (offset identically zero, measurement omitted) or on a
	// metahost with hardware clock synchronization.
	SharedNodeClock bool

	// Flat measurements: this process against the global master.
	FlatStart, FlatEnd vclock.Measurement
	// Hierarchical measurements: this process against its local master…
	LocalStart, LocalEnd vclock.Measurement
	// …and its local master against the metamaster (replicated into
	// every slave's trace so each analysis process is self-contained).
	MasterStart, MasterEnd vclock.Measurement
}

// CommDef records a communicator the process was a member of: its
// world-unique id and its members as world ranks, in communicator-rank
// order. The parallel analyzer needs the membership to translate the
// communicator-local Peer field of Send/Recv events and to coordinate
// collective replay.
//
// Ranks is read-only: traces decoded through one Interner share one
// slice per distinct communicator.
type CommDef struct {
	ID    int32
	Ranks []int32
}

// Trace is one process's local trace: its location, synchronization
// data, the region table and communicator definitions (replicated per
// file for self-containment), and the time-ordered event sequence.
type Trace struct {
	Loc     Location
	Sync    SyncData
	Regions []Region
	Comms   []CommDef
	Events  []Event
}

// CommByID returns the communicator definition with the given id, or
// nil if the process did not record it.
func (t *Trace) CommByID(id int32) *CommDef {
	for i := range t.Comms {
		if t.Comms[i].ID == id {
			return &t.Comms[i]
		}
	}
	return nil
}

// Duration returns the local-clock span between the first and last
// event, or 0 for traces with fewer than two events.
func (t *Trace) Duration() float64 {
	if len(t.Events) < 2 {
		return 0
	}
	return t.Events[len(t.Events)-1].Time - t.Events[0].Time
}

// CountKind returns the number of events of the given kind.
func (t *Trace) CountKind(k EventKind) int {
	n := 0
	for i := range t.Events {
		if t.Events[i].Kind == k {
			n++
		}
	}
	return n
}

// RegionTable resolves a region id to its definition without hashing.
// Writers number regions 0, 1, 2, …, and the ids of that dense run index
// the table; any other id is found by binary search. A header whose ids
// strictly ascend — every header our writers produce — is indexed as it
// stands; any other is copied and sorted, and an id declared more than
// once resolves to its last declaration.
type RegionTable struct {
	byID  []Region // ascending by id, each id once
	dense int      // byID[i].ID == i for every i < dense
}

// NewRegionTable indexes a header's region table.
func NewRegionTable(regions []Region) RegionTable {
	byID := regions
	ascending := true
	for i := 1; i < len(regions) && ascending; i++ {
		ascending = regions[i-1].ID < regions[i].ID
	}
	if !ascending {
		// Latest declaration first, so that compacting keeps it.
		byID = slices.Clone(regions)
		slices.Reverse(byID)
		slices.SortStableFunc(byID, func(a, b Region) int { return cmp.Compare(a.ID, b.ID) })
		byID = slices.CompactFunc(byID, func(a, b Region) bool { return a.ID == b.ID })
	}
	dense := 0
	for dense < len(byID) && byID[dense].ID == RegionID(dense) {
		dense++
	}
	return RegionTable{byID: byID, dense: dense}
}

// Lookup returns the definition of region id, nil if the header does not
// declare it: an index below the dense bound, a binary search above it.
func (t *RegionTable) Lookup(id RegionID) *Region {
	if uint64(id) < uint64(t.dense) {
		return &t.byID[id]
	}
	return t.search(id)
}

// search is Lookup's slow path, apart so that Lookup inlines.
func (t *RegionTable) search(id RegionID) *Region {
	rest := t.byID[t.dense:]
	if i, ok := slices.BinarySearchFunc(rest, id, func(r Region, id RegionID) int { return cmp.Compare(r.ID, id) }); ok {
		return &rest[i]
	}
	return nil
}

// Validate checks structural well-formedness: monotone non-decreasing
// time stamps, balanced Enter/Exit nesting, and region references that
// resolve. The analyzer calls this before replay; a violation points
// at a corrupted or truncated trace file.
func (t *Trace) Validate() error {
	v := NewStreamValidator(t)
	for i := range t.Events {
		if err := v.Event(&t.Events[i]); err != nil {
			return err
		}
	}
	return v.Close()
}
