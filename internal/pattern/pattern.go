// Package pattern defines the wait-state patterns searched for in
// event traces, together with the metric hierarchy they form in the
// analysis report.
//
// The base patterns follow Wolf/Mohr's MPI-1 catalogue (§3/§4 and
// Figure 4): Late Sender and Late Receiver for point-to-point
// communication; Early Reduce, Late Broadcast, and Wait at N×N for
// collective communication; Wait at Barrier and Barrier Completion for
// explicit synchronization.
//
// The metacomputing-specific ("grid") patterns of the paper are
// specializations that count only instances in which communication
// crosses metahost boundaries: for point-to-point communication the
// sender and receiver reside on different metahosts; for collective
// communication the communicator spans more than one metahost. They
// appear as children of the corresponding base pattern, mirroring the
// non-grid hierarchy.
//
// All formulas are pure functions of corrected event times, which
// makes them unit-testable against the timing diagrams of Figure 4.
package pattern

// ID enumerates the wait-state patterns. Severities are accumulated
// per (pattern, call path, process) in seconds.
type ID int

// The pattern catalogue. "Plain" instances (no Grid/WrongOrder
// qualifier) exclude their specializations, so the values of a parent
// and its children are disjoint and inclusive aggregation along the
// metric tree reproduces the classic totals.
const (
	LateSender ID = iota
	GridLateSender
	WrongOrder
	LateReceiver
	GridLateReceiver
	EarlyReduce
	GridEarlyReduce
	LateBroadcast
	GridLateBroadcast
	WaitNxN
	GridWaitNxN
	WaitBarrier
	GridWaitBarrier
	BarrierCompletion
	NxNCompletion
	NumPatterns // count sentinel
)

// String names the pattern as displayed in analysis reports.
func (id ID) String() string {
	switch id {
	case LateSender:
		return "Late Sender"
	case GridLateSender:
		return "Grid Late Sender"
	case WrongOrder:
		return "Messages in Wrong Order"
	case LateReceiver:
		return "Late Receiver"
	case GridLateReceiver:
		return "Grid Late Receiver"
	case EarlyReduce:
		return "Early Reduce"
	case GridEarlyReduce:
		return "Grid Early Reduce"
	case LateBroadcast:
		return "Late Broadcast"
	case GridLateBroadcast:
		return "Grid Late Broadcast"
	case WaitNxN:
		return "Wait at N x N"
	case GridWaitNxN:
		return "Grid Wait at N x N"
	case WaitBarrier:
		return "Wait at Barrier"
	case GridWaitBarrier:
		return "Grid Wait at Barrier"
	case BarrierCompletion:
		return "Barrier Completion"
	case NxNCompletion:
		return "N x N Completion"
	default:
		return "Unknown Pattern"
	}
}

// Gridded returns the grid specialization of a base pattern, or the
// pattern itself if none exists.
func (id ID) Gridded() ID {
	switch id {
	case LateSender:
		return GridLateSender
	case LateReceiver:
		return GridLateReceiver
	case EarlyReduce:
		return GridEarlyReduce
	case LateBroadcast:
		return GridLateBroadcast
	case WaitNxN:
		return GridWaitNxN
	case WaitBarrier:
		return GridWaitBarrier
	}
	return id
}

// clamp bounds a waiting time to the enclosing operation's duration:
// a process cannot wait longer than it spent inside the call, and
// negative values mean no waiting.
func clamp(wait, duration float64) float64 {
	if wait < 0 {
		return 0
	}
	if wait > duration {
		return duration
	}
	return wait
}

// LateSenderWait computes the Late Sender waiting time (Figure 4a): a
// process blocks in a receive operation posted earlier than the
// corresponding send. recvEnter/recvDone delimit the blocking receive
// (MPI_Recv or the MPI_Wait completing an MPI_Irecv); sendEnter is the
// matching send operation's enter time.
func LateSenderWait(sendEnter, recvEnter, recvDone float64) float64 {
	return clamp(sendEnter-recvEnter, recvDone-recvEnter)
}

// LateReceiverWait computes the Late Receiver waiting time: a sender
// blocks in a rendezvous send until the receiver posts the matching
// receive. sendEnter/sendDone delimit the blocking send; recvEnter is
// the matching receive's enter time. Eager messages never block and
// yield zero by construction (sendDone precedes recvEnter's effect).
func LateReceiverWait(recvEnter, sendEnter, sendDone float64) float64 {
	return clamp(recvEnter-sendEnter, sendDone-sendEnter)
}

// WaitAtNxNWait computes one process's share of the Wait at N×N
// pattern (Figure 4b): time spent in an n-to-n operation until the
// last participant has entered it. maxEnter is the latest enter time
// across the communicator.
func WaitAtNxNWait(maxEnter, myEnter, myDone float64) float64 {
	return clamp(maxEnter-myEnter, myDone-myEnter)
}

// WaitAtBarrierWait is WaitAtNxNWait applied to an explicit barrier,
// the Wait at Barrier variant of the paper.
func WaitAtBarrierWait(maxEnter, myEnter, myDone float64) float64 {
	return WaitAtNxNWait(maxEnter, myEnter, myDone)
}

// BarrierCompletionWait computes the time a process remains inside a
// barrier after the last participant entered it — implementation skew
// rather than application imbalance.
func BarrierCompletionWait(maxEnter, myEnter, myDone float64) float64 {
	if myDone < maxEnter {
		return 0
	}
	w := myDone - maxEnter
	return clamp(w, myDone-myEnter)
}

// NxNCompletionWait is the n-to-n analogue of BarrierCompletionWait:
// time spent inside an n-to-n operation after the last participant
// entered it (algorithmic cost plus skew, not application imbalance).
func NxNCompletionWait(maxEnter, myEnter, myDone float64) float64 {
	return BarrierCompletionWait(maxEnter, myEnter, myDone)
}

// EarlyReduceWait computes the root's waiting time in an n-to-1
// operation entered before any data could possibly arrive: the root
// idles until the first non-root participant enters. minNonRootEnter
// is the earliest enter time among non-root members.
func EarlyReduceWait(minNonRootEnter, rootEnter, rootDone float64) float64 {
	return clamp(minNonRootEnter-rootEnter, rootDone-rootEnter)
}

// LateBroadcastWait computes a non-root process's waiting time in a
// 1-to-n operation entered before the root: no data can arrive until
// the root enters.
func LateBroadcastWait(rootEnter, myEnter, myDone float64) float64 {
	return clamp(rootEnter-myEnter, myDone-myEnter)
}

// WrongOrderCandidate reports whether a Late Sender instance
// additionally qualifies as Messages in Wrong Order: the receiver
// waited for a message although an earlier-sent message — one it
// receives later — was already in flight and could have been consumed
// first. matchedSend is the matched message's send time; otherSend is
// the send time of a message the process receives later.
func WrongOrderCandidate(lsWait, matchedSend, otherSend, recvEnter float64) bool {
	return lsWait > 0 && otherSend < matchedSend && otherSend < recvEnter
}
