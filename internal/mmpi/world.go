// Package mmpi is a simulated message-passing library in the spirit of
// MetaMPICH: an MPI-like API (blocking and non-blocking point-to-point,
// collectives, communicators) executed on a simulated metacomputer.
//
// Like MetaMPICH's multi-device architecture, the layer routes every
// message over the network segment implied by the endpoints' locations
// — shared memory within an SMP node, the metahost's internal
// interconnect, or the external wide-area link between metahosts — each
// with its own latency distribution and bandwidth. Processes connect to
// the external network directly; no router processes are modelled.
//
// The package is deliberately ignorant of clocks and tracing: it works
// in true simulation time. The measurement layer (internal/measure)
// wraps it to read virtual clocks and record events.
package mmpi

import (
	"fmt"

	"metascope/internal/sim"
	"metascope/internal/topology"
)

// Wildcards for Recv/Irecv source and tag matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// DefaultEagerLimit is the message size (bytes) up to which sends
// complete eagerly; larger messages use a rendezvous handshake and
// block until the receiver has posted a matching receive.
const DefaultEagerLimit = 64 << 10

// World owns the simulated MPI job: one process per placed rank.
type World struct {
	eng        *sim.Engine
	place      *topology.Placement
	EagerLimit int
	// CrossTraffic, when non-nil, returns extra one-way latency
	// (seconds) injected into every message sampled at simulation time
	// now over a link of the given class. Scenario generators use it
	// for time-windowed WAN cross-traffic bursts without disturbing
	// the static topology description. The hook must be a pure
	// function of its arguments (determinism) and non-negative
	// returns only; negative values are ignored.
	CrossTraffic func(now float64, class topology.LinkClass) float64
	// AsymFrac scales the fixed per-route latency asymmetry: every
	// ordered pair of nodes gets a constant one-way latency offset
	// drawn uniformly from ±AsymFrac·latency (antisymmetric between
	// the two directions). Routing asymmetry is what limits the
	// accuracy of remote clock reading — it cannot be averaged away —
	// and because it scales with the link latency, offset measurements
	// across the external network are roughly an order of magnitude
	// less accurate than internal ones, exactly the effect §4 builds
	// the hierarchical synchronization on. Round-trip measurements
	// (Table 1) are unaffected: the asymmetry cancels in RTT/2.
	AsymFrac float64

	procs    []*Proc
	comms    []*commGroup
	pend     map[int][]*message // pending (unmatched) messages per destination global rank
	posted   map[int][]*recvReq // posted (unmatched) receives per destination global rank
	lastAt   map[pairKey]float64
	seqs     map[pairKey]uint64
	colls    map[collKey]*collState
	collSeqs map[collSeqKey]int
	asym     map[asymKey]float64
}

// asymKey identifies an unordered node pair for route-asymmetry draws.
type asymKey struct {
	am, an, bm, bn int
}

type pairKey struct{ src, dst, comm int }

// NewWorld creates a world over the given placement. The placement
// must already be valid.
func NewWorld(eng *sim.Engine, place *topology.Placement) *World {
	w := &World{
		eng:        eng,
		place:      place,
		EagerLimit: DefaultEagerLimit,
		pend:       make(map[int][]*message),
		posted:     make(map[int][]*recvReq),
		lastAt:     make(map[pairKey]float64),
		seqs:       make(map[pairKey]uint64),
		colls:      make(map[collKey]*collState),
		collSeqs:   make(map[collSeqKey]int),
		asym:       make(map[asymKey]float64),
		AsymFrac:   0.08,
	}
	world := &commGroup{id: 0, ranks: make([]int, place.N())}
	for i := range world.ranks {
		world.ranks[i] = i
	}
	w.comms = []*commGroup{world}
	return w
}

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Placement returns the rank→location mapping.
func (w *World) Placement() *topology.Placement { return w.place }

// N returns the number of ranks.
func (w *World) N() int { return w.place.N() }

// Proc is one simulated MPI process.
type Proc struct {
	w    *World
	rank int // global rank
	sp   *sim.Proc
	wc   *Comm
}

// Rank returns the process's global (world) rank.
func (p *Proc) Rank() int { return p.rank }

// Loc returns the process's location in the metacomputer.
func (p *Proc) Loc() topology.Loc { return p.w.place.Loc(p.rank) }

// Metahost returns the metahost the process runs on.
func (p *Proc) Metahost() *topology.Metahost {
	return p.w.place.Metacomputer().Metahost(p.Loc().Metahost)
}

// World returns the communicator containing every rank.
func (p *Proc) World() *Comm { return p.wc }

// Now returns true simulation time. Application code should not use
// this for time stamps — that is what virtual clocks are for — but
// workload generators use it to drive phase lengths.
func (p *Proc) Now() float64 { return p.sp.Now() }

// Sim returns the underlying simulation process (for advanced use by
// the measurement layer).
func (p *Proc) Sim() *sim.Proc { return p.sp }

// Engine returns the simulation engine.
func (p *Proc) Engine() *sim.Engine { return p.w.eng }

// Compute advances the process by work/speed seconds, where speed is
// the metahost's execution-speed factor for the given kernel. A work
// of 1.0 therefore takes 1 s on a nominal machine and 0.5 s on a
// speed-2.0 machine — the mechanism behind the paper's heterogeneous
// load imbalance.
func (p *Proc) Compute(kernel string, work float64) {
	if work <= 0 {
		return
	}
	p.sp.Sleep(work / p.Metahost().SpeedFor(kernel))
}

// Elapse advances the process by a fixed wall-time duration regardless
// of machine speed (e.g. I/O or sleep phases).
func (p *Proc) Elapse(seconds float64) { p.sp.Sleep(seconds) }

// Run spawns one process per rank executing body and runs the
// simulation to completion. It returns the engine's error (process
// panic, deadlock, …), if any.
func (w *World) Run(body func(p *Proc)) error {
	w.Start(body)
	return w.eng.Run()
}

// Start spawns the rank processes without running the engine, allowing
// the caller to co-schedule other simulation activity before Run.
func (w *World) Start(body func(p *Proc)) {
	if w.procs != nil {
		panic("mmpi: world already started")
	}
	w.procs = make([]*Proc, w.N())
	for r := 0; r < w.N(); r++ {
		p := &Proc{w: w, rank: r}
		p.wc = &Comm{group: w.comms[0], p: p, myRank: r}
		w.procs[r] = p
		body := body // capture per-iteration
		p.sp = w.eng.Spawn(fmt.Sprintf("rank%d", r), func(sp *sim.Proc) {
			body(p)
		})
	}
}

// link returns the topology link connecting two global ranks together
// with its class.
func (w *World) link(a, b int) (topology.Link, topology.LinkClass) {
	la, lb := w.place.Loc(a), w.place.Loc(b)
	class := topology.Classify(la, lb)
	mc := w.place.Metacomputer()
	switch class {
	case topology.SameNode:
		return mc.Metahost(la.Metahost).NodeLocal, class
	case topology.Internal:
		return mc.Metahost(la.Metahost).Internal, class
	default:
		return mc.ExternalLink(la.Metahost, lb.Metahost), class
	}
}

// routeAsymmetry returns the fixed one-way latency offset of the route
// a→b. It is drawn once per node pair and antisymmetric: the reverse
// direction gets the negated value, so round trips are unaffected.
func (w *World) routeAsymmetry(a, b int, l topology.Link, class topology.LinkClass) float64 {
	if w.AsymFrac <= 0 || class == topology.SameNode {
		return 0
	}
	la, lb := w.place.Loc(a), w.place.Loc(b)
	sign := 1.0
	ka := asymKey{la.Metahost, la.Node, lb.Metahost, lb.Node}
	if ka.am > ka.bm || (ka.am == ka.bm && ka.an > ka.bn) {
		ka = asymKey{ka.bm, ka.bn, ka.am, ka.an}
		sign = -1
	}
	d, ok := w.asym[ka]
	if !ok {
		bound := w.AsymFrac * l.LatencyMean
		d = w.eng.Uniform("net:asym", -bound, bound)
		w.asym[ka] = d
	}
	return sign * d
}

// netStreams names each link class's random streams — latency, spike
// and spike tail — once, not once per message.
var netStreams = func() (names [topology.External + 1][3]string) {
	for c := range names {
		lat := "net:" + topology.LinkClass(c).String()
		names[c] = [3]string{lat, lat + ":spike", lat + ":spiketail"}
	}
	return names
}()

// sampleLatency draws a one-way latency for a message from a to b. The
// draw includes the route's fixed asymmetry and heavy-tailed
// cross-traffic spikes on shared links.
func (w *World) sampleLatency(a, b int) float64 {
	l, class := w.link(a, b)
	names := &netStreams[class]
	lat := w.eng.Normal(names[0], l.LatencyMean, l.LatencySD, l.LatencyMean/4)
	lat += w.routeAsymmetry(a, b, l, class)
	if !l.Dedicated && l.SpikeProb > 0 {
		if w.eng.Uniform(names[1], 0, 1) < l.SpikeProb {
			lat += w.eng.Pareto(names[2], l.SpikeScale, l.SpikeAlpha)
		}
	}
	if lat < l.LatencyMean/8 {
		lat = l.LatencyMean / 8
	}
	if w.CrossTraffic != nil {
		if extra := w.CrossTraffic(w.eng.Now(), class); extra > 0 {
			lat += extra
		}
	}
	return lat
}

// transferTime returns the bandwidth term for a payload between a and b.
func (w *World) transferTime(a, b, bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	l, _ := w.link(a, b)
	return float64(bytes) / l.Bandwidth
}

// overhead returns the CPU-side per-message cost for the link between
// a and b (send injection or receive copy), a small fraction of the
// link latency capped at 3 µs.
func (w *World) overhead(a, b int) float64 {
	l, _ := w.link(a, b)
	o := 0.2 * l.LatencyMean
	if o > 3e-6 {
		o = 3e-6
	}
	return o
}

// commGroup is the process-independent part of a communicator.
type commGroup struct {
	id    int
	ranks []int // global rank of each communicator rank
}

// Comm is one process's handle on a communicator.
type Comm struct {
	group  *commGroup
	p      *Proc
	myRank int // rank within the communicator
}

// ID returns the communicator's world-unique id (0 = world).
func (c *Comm) ID() int { return c.group.id }

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.group.ranks) }

// GlobalRank translates a communicator rank to a world rank.
func (c *Comm) GlobalRank(r int) int { return c.group.ranks[r] }

// Ranks returns the communicator's members as global ranks (a copy).
func (c *Comm) Ranks() []int {
	out := make([]int, len(c.group.ranks))
	copy(out, c.group.ranks)
	return out
}

// SpansMetahosts reports whether the communicator's members live on
// more than one metahost — the test behind the "grid" versions of the
// collective patterns (§4).
func (c *Comm) SpansMetahosts() bool {
	place := c.p.w.place
	first := place.Loc(c.group.ranks[0]).Metahost
	for _, g := range c.group.ranks[1:] {
		if place.Loc(g).Metahost != first {
			return true
		}
	}
	return false
}

// Proc returns the owning process.
func (c *Comm) Proc() *Proc { return c.p }

// PredefComm creates a communicator before the world starts, visible to
// every member process through Predef. It is the simulation shortcut
// for communicators the application sets up during MPI_Init; Split
// provides the dynamic, collective variant.
func (w *World) PredefComm(ranks []int) int {
	if w.procs != nil {
		panic("mmpi: PredefComm must be called before Start/Run")
	}
	g := &commGroup{id: len(w.comms), ranks: append([]int(nil), ranks...)}
	w.comms = append(w.comms, g)
	return g.id
}

// Predef returns the calling process's handle on a communicator created
// with PredefComm, or nil if the process is not a member.
func (p *Proc) Predef(id int) *Comm {
	if id < 0 || id >= len(p.w.comms) {
		panic(fmt.Sprintf("mmpi: unknown communicator id %d", id))
	}
	g := p.w.comms[id]
	for i, gr := range g.ranks {
		if gr == p.rank {
			return &Comm{group: g, p: p, myRank: i}
		}
	}
	return nil
}
