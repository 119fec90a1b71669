package measure

import (
	"metascope/internal/mmpi"
	"metascope/internal/trace"
)

// Comm is the instrumented communicator handed to application code.
// Every call records the events KOJAK's MPI wrappers would record: an
// Enter for the MPI region, the message or collective record, and an
// Exit — time-stamped with the local node clock.
type Comm struct {
	m *M
	c *mmpi.Comm
}

// Rank returns the calling process's rank within the communicator.
func (cc *Comm) Rank() int { return cc.c.Rank() }

// Size returns the communicator size.
func (cc *Comm) Size() int { return cc.c.Size() }

// ID returns the communicator id.
func (cc *Comm) ID() int { return cc.c.ID() }

// GlobalRank translates a communicator rank to a world rank.
func (cc *Comm) GlobalRank(r int) int { return cc.c.GlobalRank(r) }

// SpansMetahosts reports whether members live on several metahosts.
func (cc *Comm) SpansMetahosts() bool { return cc.c.SpansMetahosts() }

// Request pairs an outstanding operation with what Wait must record.
type Request struct {
	r      *mmpi.Request
	isRecv bool
}

func (cc *Comm) sendEvent(dst, tag, bytes int) {
	cc.m.record(trace.Event{
		Kind: trace.KindSend, Time: cc.m.now(),
		Comm: int32(cc.c.ID()), Peer: int32(dst), Tag: int32(tag), Bytes: int64(bytes),
	})
}

func (cc *Comm) recvEvent(st mmpi.Status) {
	cc.m.record(trace.Event{
		Kind: trace.KindRecv, Time: cc.m.now(),
		Comm: int32(cc.c.ID()), Peer: int32(st.Source), Tag: int32(st.Tag), Bytes: int64(st.Bytes),
	})
}

func (cc *Comm) collEvent(op trace.CollOp, root, bytes int) {
	cc.m.record(trace.Event{
		Kind: trace.KindCollExit, Time: cc.m.now(),
		Comm: int32(cc.c.ID()), Coll: op, Root: int32(root), Bytes: int64(bytes),
	})
}

// Send is an instrumented blocking send.
func (cc *Comm) Send(dst, tag, bytes int) {
	cc.m.enterMPI("MPI_Send", trace.RegionMPIP2P)
	cc.sendEvent(dst, tag, bytes)
	cc.c.Send(dst, tag, bytes)
	cc.m.Exit()
}

// SendData is Send with an attached payload value.
func (cc *Comm) SendData(dst, tag, bytes int, data interface{}) {
	cc.m.enterMPI("MPI_Send", trace.RegionMPIP2P)
	cc.sendEvent(dst, tag, bytes)
	cc.c.SendData(dst, tag, bytes, data)
	cc.m.Exit()
}

// Recv is an instrumented blocking receive.
func (cc *Comm) Recv(src, tag int) mmpi.Status {
	cc.m.enterMPI("MPI_Recv", trace.RegionMPIP2P)
	st := cc.c.Recv(src, tag)
	cc.recvEvent(st)
	cc.m.Exit()
	return st
}

// Isend is an instrumented non-blocking send. The Send event is
// recorded at the Isend, matching KOJAK's convention.
func (cc *Comm) Isend(dst, tag, bytes int) *Request {
	cc.m.enterMPI("MPI_Isend", trace.RegionMPIP2P)
	cc.sendEvent(dst, tag, bytes)
	r := cc.c.Isend(dst, tag, bytes)
	cc.m.Exit()
	return &Request{r: r}
}

// Irecv is an instrumented non-blocking receive. The Recv event is
// recorded by the Wait that completes it, whose Enter marks the start
// of blocking — the time the Late Sender pattern measures against.
func (cc *Comm) Irecv(src, tag int) *Request {
	cc.m.enterMPI("MPI_Irecv", trace.RegionMPIP2P)
	r := cc.c.Irecv(src, tag)
	cc.m.Exit()
	return &Request{r: r, isRecv: true}
}

// Wait blocks until the request completes.
func (cc *Comm) Wait(req *Request) mmpi.Status {
	cc.m.enterMPI("MPI_Wait", trace.RegionMPIP2P)
	st := cc.c.Wait(req.r)
	if req.isRecv {
		cc.recvEvent(st)
	}
	cc.m.Exit()
	return st
}

// Waitall blocks until every request completes.
func (cc *Comm) Waitall(reqs []*Request) []mmpi.Status {
	cc.m.enterMPI("MPI_Waitall", trace.RegionMPIP2P)
	out := make([]mmpi.Status, len(reqs))
	for i, req := range reqs {
		out[i] = cc.c.Wait(req.r)
		if req.isRecv {
			cc.recvEvent(out[i])
		}
	}
	cc.m.Exit()
	return out
}

// Sendrecv is an instrumented simultaneous send and receive.
func (cc *Comm) Sendrecv(dst, sendTag, bytes, src, recvTag int) mmpi.Status {
	cc.m.enterMPI("MPI_Sendrecv", trace.RegionMPIP2P)
	cc.sendEvent(dst, sendTag, bytes)
	st := cc.c.Sendrecv(dst, sendTag, bytes, src, recvTag)
	cc.recvEvent(st)
	cc.m.Exit()
	return st
}

// Barrier is an instrumented barrier.
func (cc *Comm) Barrier() {
	cc.m.enterMPI("MPI_Barrier", trace.RegionMPIColl)
	cc.c.Barrier()
	cc.collEvent(trace.CollBarrier, -1, 0)
	cc.m.Exit()
}

// Bcast is an instrumented broadcast.
func (cc *Comm) Bcast(root, bytes int) {
	cc.m.enterMPI("MPI_Bcast", trace.RegionMPIColl)
	cc.c.Bcast(root, bytes)
	cc.collEvent(trace.CollBcast, root, bytes)
	cc.m.Exit()
}

// Reduce is an instrumented reduction to root.
func (cc *Comm) Reduce(root, bytes int) {
	cc.m.enterMPI("MPI_Reduce", trace.RegionMPIColl)
	cc.c.Reduce(root, bytes)
	cc.collEvent(trace.CollReduce, root, bytes)
	cc.m.Exit()
}

// Allreduce is an instrumented all-reduce.
func (cc *Comm) Allreduce(bytes int) {
	cc.m.enterMPI("MPI_Allreduce", trace.RegionMPIColl)
	cc.c.Allreduce(bytes)
	cc.collEvent(trace.CollAllreduce, -1, bytes)
	cc.m.Exit()
}

// Gather is an instrumented gather to root.
func (cc *Comm) Gather(root, bytes int) {
	cc.m.enterMPI("MPI_Gather", trace.RegionMPIColl)
	cc.c.Gather(root, bytes)
	cc.collEvent(trace.CollGather, root, bytes)
	cc.m.Exit()
}

// Scatter is an instrumented scatter from root.
func (cc *Comm) Scatter(root, bytes int) {
	cc.m.enterMPI("MPI_Scatter", trace.RegionMPIColl)
	cc.c.Scatter(root, bytes)
	cc.collEvent(trace.CollScatter, root, bytes)
	cc.m.Exit()
}

// Allgather is an instrumented all-gather.
func (cc *Comm) Allgather(bytes int) {
	cc.m.enterMPI("MPI_Allgather", trace.RegionMPIColl)
	cc.c.Allgather(bytes)
	cc.collEvent(trace.CollAllgather, -1, bytes)
	cc.m.Exit()
}

// Alltoall is an instrumented all-to-all.
func (cc *Comm) Alltoall(bytes int) {
	cc.m.enterMPI("MPI_Alltoall", trace.RegionMPIColl)
	cc.c.Alltoall(bytes)
	cc.collEvent(trace.CollAlltoall, -1, bytes)
	cc.m.Exit()
}

// ReduceScatter is an instrumented reduce-scatter.
func (cc *Comm) ReduceScatter(bytes int) {
	cc.m.enterMPI("MPI_Reduce_scatter", trace.RegionMPIColl)
	cc.c.ReduceScatter(bytes)
	cc.collEvent(trace.CollReduceScatter, -1, bytes)
	cc.m.Exit()
}

// Scan is an instrumented prefix reduction.
func (cc *Comm) Scan(bytes int) {
	cc.m.enterMPI("MPI_Scan", trace.RegionMPIColl)
	cc.c.Scan(bytes)
	cc.collEvent(trace.CollScan, -1, bytes)
	cc.m.Exit()
}

// Split is an instrumented communicator split. It returns nil for a
// negative color.
func (cc *Comm) Split(color, key int) *Comm {
	cc.m.enterMPI("MPI_Comm_split", trace.RegionMPIOther)
	nc := cc.c.Split(color, key)
	cc.collEvent(trace.CollCommSplit, -1, 0)
	cc.m.Exit()
	if nc == nil {
		return nil
	}
	cc.m.noteComm(nc)
	return &Comm{m: cc.m, c: nc}
}
