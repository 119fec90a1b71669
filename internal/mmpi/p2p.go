package mmpi

import (
	"fmt"
	"slices"

	"metascope/internal/sim"
)

// fifoEps is the minimal spacing enforced between consecutive message
// arrivals on the same (source, destination) pair. It models an
// ordered transport (MetaMPICH's usock devices run over stream
// sockets) and guarantees MPI's non-overtaking rule even when latency
// jitter would reorder packets.
const fifoEps = 1e-9

// Status describes a completed point-to-point operation. For receives,
// Source is the communicator rank of the matched sender (useful with
// AnySource); for sends it is the destination rank. Data carries the
// optional payload value attached with SendData/IsendData.
type Status struct {
	Source int
	Tag    int
	Bytes  int
	Data   interface{}
}

// Request is a handle on an outstanding non-blocking operation.
type Request struct {
	p       *Proc
	done    bool
	doneAt  float64
	st      Status
	waiting bool
	isRecv  bool
}

// Done reports whether the operation has completed (Test in MPI terms).
func (r *Request) Done() bool { return r.done }

// message is an in-flight point-to-point message. For eager messages
// availAt is the time the payload has fully arrived at the receiver;
// for rendezvous messages it is the arrival of the ready-to-send
// handshake, and the payload moves only after a matching receive.
type recvReq struct {
	comm     int
	src, tag int
	dstGlob  int
	postedAt float64
	req      *Request
}

type message struct {
	comm             int
	srcComm, dstComm int
	srcGlob, dstGlob int
	tag, bytes       int
	seq              uint64
	eager            bool
	availAt          float64
	sendReq          *Request // rendezvous only: completed on match
	data             interface{}
	w                *World
}

func (rr *recvReq) matches(m *message) bool {
	return rr.comm == m.comm &&
		(rr.src == AnySource || rr.src == m.srcComm) &&
		(rr.tag == AnyTag || rr.tag == m.tag)
}

// completeAt schedules req to finish at absolute time at with the given
// status, resuming a process blocked in Wait.
func (w *World) completeAt(req *Request, at float64, st Status) {
	req.doneAt, req.st = at, st
	w.eng.At(at, (*completion)(req))
}

// completion is the Event that completes a request.
type completion Request

func (c *completion) Fire() {
	c.done = true
	if c.waiting {
		c.waiting = false
		c.p.sp.ResumeAt(c.doneAt)
	}
}

// Fire delivers the message at its arrival time.
func (m *message) Fire() { m.w.deliver(m) }

// Isend starts a non-blocking send of bytes to communicator rank dst
// with the given tag. Messages up to the world's EagerLimit complete
// once injected; larger ones complete only after the rendezvous
// handshake with a matching receive — the source of the Late Receiver
// wait state.
func (c *Comm) Isend(dst, tag, bytes int) *Request {
	return c.IsendData(dst, tag, bytes, nil)
}

// IsendData is Isend with an attached payload value, delivered to the
// receiver through Status.Data. The simulation uses it for values the
// application logically transmits (clock readings, steering scalars);
// bytes still controls the modelled wire size.
func (c *Comm) IsendData(dst, tag, bytes int, data interface{}) *Request {
	w := c.p.w
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mmpi: Isend to rank %d of %d-process communicator", dst, c.Size()))
	}
	if tag < 0 {
		panic("mmpi: send tag must be >= 0")
	}
	sg, dg := c.p.rank, c.group.ranks[dst]
	now := c.p.Now()
	req := &Request{p: c.p}

	pk := pairKey{src: sg, dst: dg, comm: c.group.id}
	w.seqs[pk]++
	lat := w.sampleLatency(sg, dg)
	xfer := w.transferTime(sg, dg, bytes)

	m := &message{
		comm: c.group.id, srcComm: c.myRank, dstComm: dst,
		srcGlob: sg, dstGlob: dg, tag: tag, bytes: bytes, seq: w.seqs[pk],
		data: data, w: w,
	}
	fifo := pairKey{src: sg, dst: dg} // FIFO across communicators: one transport per pair
	if bytes <= w.EagerLimit {
		m.eager = true
		arrival := now + lat + xfer
		if last := w.lastAt[fifo]; arrival <= last {
			arrival = last + fifoEps
		}
		w.lastAt[fifo] = arrival
		m.availAt = arrival
		w.eng.At(arrival, m)
		// The sender is done once the payload is injected locally.
		w.completeAt(req, now+w.overhead(sg, dg)+xfer, Status{Source: dst, Tag: tag, Bytes: bytes})
	} else {
		m.sendReq = req
		arrival := now + lat
		if last := w.lastAt[fifo]; arrival <= last {
			arrival = last + fifoEps
		}
		w.lastAt[fifo] = arrival
		m.availAt = arrival
		w.eng.At(arrival, m)
		// Completion is scheduled by match() once the receive exists.
	}
	return req
}

// Irecv posts a non-blocking receive for a message from communicator
// rank src (or AnySource) with the given tag (or AnyTag).
func (c *Comm) Irecv(src, tag int) *Request {
	w := c.p.w
	if src != AnySource && (src < 0 || src >= c.Size()) {
		panic(fmt.Sprintf("mmpi: Irecv from rank %d of %d-process communicator", src, c.Size()))
	}
	req := &Request{p: c.p, isRecv: true}
	rr := &recvReq{comm: c.group.id, src: src, tag: tag, dstGlob: c.p.rank, postedAt: c.p.Now(), req: req}
	pend := w.pend[rr.dstGlob]
	for i, m := range pend {
		if rr.matches(m) {
			w.pend[rr.dstGlob] = slices.Delete(pend, i, i+1)
			w.match(m, rr, c.p.Now())
			return req
		}
	}
	w.posted[rr.dstGlob] = append(w.posted[rr.dstGlob], rr)
	return req
}

// deliver runs at a message's arrival time (scheduler context) and
// either matches an already posted receive or queues the message.
// Pending queues stay in arrival order, which — thanks to the per-pair
// FIFO transport — is send order per source, so matching is
// non-overtaking.
func (w *World) deliver(m *message) {
	posted := w.posted[m.dstGlob]
	for i, rr := range posted {
		if rr.matches(m) {
			w.posted[m.dstGlob] = slices.Delete(posted, i, i+1)
			w.match(m, rr, w.eng.Now())
			return
		}
	}
	w.pend[m.dstGlob] = append(w.pend[m.dstGlob], m)
}

// match joins a message with a receive at match time tm and schedules
// the completions of both sides.
func (w *World) match(m *message, rr *recvReq, tm float64) {
	if m.eager {
		at := m.availAt
		if tm > at {
			at = tm
		}
		w.completeAt(rr.req, at+w.overhead(m.srcGlob, m.dstGlob),
			Status{Source: m.srcComm, Tag: m.tag, Bytes: m.bytes, Data: m.data})
		return
	}
	// Rendezvous: clear-to-send travels back to the sender, then the
	// payload streams over. The sender finishes when the last byte is
	// pushed, the receiver one latency later when it lands.
	lat := w.sampleLatency(m.srcGlob, m.dstGlob)
	xfer := w.transferTime(m.srcGlob, m.dstGlob, m.bytes)
	w.completeAt(m.sendReq, tm+lat+xfer, Status{Source: m.dstComm, Tag: m.tag, Bytes: m.bytes})
	w.completeAt(rr.req, tm+2*lat+xfer, Status{Source: m.srcComm, Tag: m.tag, Bytes: m.bytes, Data: m.data})
}

// Wait blocks until the request completes and returns its status.
func (c *Comm) Wait(req *Request) Status {
	if req.p != c.p {
		panic("mmpi: Wait on a request owned by another process")
	}
	why := waitSend
	if req.isRecv {
		why = waitRecv
	}
	for !req.done {
		req.waiting = true
		c.p.sp.Suspend(why)
	}
	return req.st
}

// The wait reasons of a blocked Wait, for deadlock reports.
var waitSend, waitRecv fmt.Stringer = sim.Reason("mpi wait (send)"), sim.Reason("mpi wait (recv)")

// Waitall waits for every request and returns their statuses in order.
func (c *Comm) Waitall(reqs []*Request) []Status {
	out := make([]Status, len(reqs))
	for i, r := range reqs {
		out[i] = c.Wait(r)
	}
	return out
}

// Send is a blocking standard-mode send (Isend + Wait).
func (c *Comm) Send(dst, tag, bytes int) {
	c.Wait(c.Isend(dst, tag, bytes))
}

// SendData is a blocking send with an attached payload value.
func (c *Comm) SendData(dst, tag, bytes int, data interface{}) {
	c.Wait(c.IsendData(dst, tag, bytes, data))
}

// Recv is a blocking receive (Irecv + Wait).
func (c *Comm) Recv(src, tag int) Status {
	return c.Wait(c.Irecv(src, tag))
}

// Sendrecv concurrently sends to dst and receives from src, the
// classic halo-exchange primitive, and returns the receive status.
func (c *Comm) Sendrecv(dst, sendTag, bytes, src, recvTag int) Status {
	rr := c.Irecv(src, recvTag)
	sr := c.Isend(dst, sendTag, bytes)
	st := c.Wait(rr)
	c.Wait(sr)
	return st
}
