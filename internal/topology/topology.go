// Package topology describes a metacomputer: a federation of
// independent, potentially heterogeneous parallel systems ("metahosts")
// joined into a single unit by external network links (Smarr/Catlett).
//
// A topology is pure data — latencies, bandwidths, CPU speeds, clock
// characteristics, and the placement of application processes onto
// metahosts and nodes. The simulation engine (internal/sim), clock
// models (internal/vclock), and message-passing layer (internal/mmpi)
// consume it.
package topology

import (
	"fmt"
	"sort"
	"strings"
)

// LinkClass classifies the network segment between two processes. The
// message-passing layer selects the class from the endpoints' locations
// — the analogue of MetaMPICH's multi-device architecture.
type LinkClass int

// Link classes ordered from fastest to slowest.
const (
	SameNode LinkClass = iota // shared memory within an SMP node
	Internal                  // a metahost's internal interconnect
	External                  // wide-area link between metahosts
)

// String names the link class.
func (c LinkClass) String() string {
	switch c {
	case SameNode:
		return "same-node"
	case Internal:
		return "internal"
	case External:
		return "external"
	default:
		return fmt.Sprintf("LinkClass(%d)", int(c))
	}
}

// Link holds the performance characteristics of one network segment.
// Latencies are one-way seconds; Bandwidth is bytes per second.
type Link struct {
	LatencyMean float64
	LatencySD   float64
	Bandwidth   float64
	// Dedicated links (e.g. VIOLA's reserved optical lightpaths) see no
	// cross traffic. Shared links suffer heavy-tailed delay spikes:
	// with probability SpikeProb a message is delayed by an additional
	// Pareto(SpikeScale, SpikeAlpha) seconds.
	Dedicated  bool
	SpikeProb  float64
	SpikeScale float64
	SpikeAlpha float64
}

// Validate reports whether the link parameters are physically sensible.
func (l Link) Validate() error {
	if l.LatencyMean <= 0 {
		return fmt.Errorf("topology: link latency mean must be > 0 (got %g)", l.LatencyMean)
	}
	if l.LatencySD < 0 {
		return fmt.Errorf("topology: link latency σ must be ≥ 0 (got %g)", l.LatencySD)
	}
	if l.Bandwidth <= 0 {
		return fmt.Errorf("topology: link bandwidth must be > 0 (got %g)", l.Bandwidth)
	}
	if !l.Dedicated && (l.SpikeProb < 0 || l.SpikeProb > 1) {
		return fmt.Errorf("topology: spike probability must be in [0,1] (got %g)", l.SpikeProb)
	}
	return nil
}

// ClockSpec describes the quality of a metahost's node clocks.
type ClockSpec struct {
	// MaxOffset bounds the initial offset of a node clock from true
	// time; actual offsets are drawn uniformly from [-MaxOffset, +MaxOffset].
	MaxOffset float64
	// MaxDrift bounds the relative drift rate (dimensionless, e.g. 1e-5
	// for 10 µs/s); actual drifts are uniform in [-MaxDrift, +MaxDrift].
	MaxDrift float64
	// Granularity is the clock read resolution in seconds (0 = perfect).
	Granularity float64
	// Synchronized metahosts provide hardware clock synchronization
	// across nodes (e.g. BlueGene); all nodes then share one clock and
	// the intra-metahost offset measurement step is omitted.
	Synchronized bool
}

// Metahost is one constituent parallel system of a metacomputer.
type Metahost struct {
	ID    int    // unique numeric identifier (the env-variable id of §4)
	Name  string // human-readable name used in analysis displays
	Site  string // organization / location, for documentation only
	Arch  string // architecture label, e.g. "Cray XD1, 2-way Opteron 2.2 GHz"
	Nodes int    // number of SMP nodes
	CPUs  int    // CPUs per node

	Interconnect string // internal network label, e.g. "usock/RapidArray"
	Internal     Link   // internal network characteristics
	NodeLocal    Link   // same-node (shared-memory) characteristics

	Clock ClockSpec

	// Speed maps a compute-kernel label to a relative execution-speed
	// factor (work units per second, relative to a nominal 1.0
	// machine). A kernel not present falls back to the "" entry, then
	// to 1.0. Per-kernel factors let heterogeneous architectures favour
	// different submodels, as observed in the paper (§5: Trace compute
	// ran ~2× faster on FH-BRS than on CAESAR).
	Speed map[string]float64
}

// SpeedFor returns the execution-speed factor for the given kernel.
func (m *Metahost) SpeedFor(kernel string) float64 {
	if m.Speed != nil {
		if f, ok := m.Speed[kernel]; ok {
			return f
		}
		if f, ok := m.Speed[""]; ok {
			return f
		}
	}
	return 1.0
}

// pairKey orders a metahost-id pair canonically for map lookup.
type pairKey struct{ a, b int }

func makePair(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// Metacomputer is the full federation description.
type Metacomputer struct {
	Name      string
	Metahosts []*Metahost

	// DefaultExternal characterizes inter-metahost links with no
	// per-pair override.
	DefaultExternal Link
	external        map[pairKey]Link
}

// New creates an empty metacomputer with the given name and a sensible
// default external link (1 ms, 1 Gbps, shared).
func New(name string) *Metacomputer {
	return &Metacomputer{
		Name: name,
		DefaultExternal: Link{
			LatencyMean: 1e-3,
			LatencySD:   5e-6,
			Bandwidth:   125e6,
		},
		external: make(map[pairKey]Link),
	}
}

// AddMetahost appends a metahost, assigning the next free ID, and
// returns it for further configuration.
func (mc *Metacomputer) AddMetahost(m *Metahost) *Metahost {
	m.ID = len(mc.Metahosts)
	mc.Metahosts = append(mc.Metahosts, m)
	return m
}

// SetExternal overrides the link characteristics between two metahosts
// (order-insensitive).
func (mc *Metacomputer) SetExternal(a, b int, l Link) {
	if mc.external == nil {
		mc.external = make(map[pairKey]Link)
	}
	mc.external[makePair(a, b)] = l
}

// ExternalLink returns the link between two distinct metahosts.
func (mc *Metacomputer) ExternalLink(a, b int) Link {
	if l, ok := mc.external[makePair(a, b)]; ok {
		return l
	}
	return mc.DefaultExternal
}

// Metahost returns the metahost with the given id, or nil.
func (mc *Metacomputer) Metahost(id int) *Metahost {
	if id < 0 || id >= len(mc.Metahosts) {
		return nil
	}
	return mc.Metahosts[id]
}

// Validate checks structural consistency of the whole description.
func (mc *Metacomputer) Validate() error {
	if len(mc.Metahosts) == 0 {
		return fmt.Errorf("topology: metacomputer %q has no metahosts", mc.Name)
	}
	seen := make(map[string]bool)
	for i, m := range mc.Metahosts {
		if m.ID != i {
			return fmt.Errorf("topology: metahost %q has id %d, want %d", m.Name, m.ID, i)
		}
		if m.Name == "" {
			return fmt.Errorf("topology: metahost %d has empty name", i)
		}
		if seen[m.Name] {
			return fmt.Errorf("topology: duplicate metahost name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Nodes <= 0 || m.CPUs <= 0 {
			return fmt.Errorf("topology: metahost %q must have nodes > 0 and cpus > 0", m.Name)
		}
		if err := m.Internal.Validate(); err != nil {
			return fmt.Errorf("metahost %q internal: %w", m.Name, err)
		}
		if err := m.NodeLocal.Validate(); err != nil {
			return fmt.Errorf("metahost %q node-local: %w", m.Name, err)
		}
	}
	if err := mc.DefaultExternal.Validate(); err != nil {
		return fmt.Errorf("default external: %w", err)
	}
	for k, l := range mc.external {
		if mc.Metahost(k.a) == nil || mc.Metahost(k.b) == nil {
			return fmt.Errorf("topology: external link references unknown metahost pair (%d,%d)", k.a, k.b)
		}
		if err := l.Validate(); err != nil {
			return fmt.Errorf("external link (%d,%d): %w", k.a, k.b, err)
		}
	}
	return nil
}

// Loc places a process in the system hierarchy: which metahost, which
// node within it, and which CPU slot on that node. This is the
// "machine/node/process" part of the event-location tuple of §3.
type Loc struct {
	Metahost int
	Node     int
	CPU      int
}

// String renders the location as "mh/node/cpu".
func (l Loc) String() string {
	return fmt.Sprintf("%d/%d/%d", l.Metahost, l.Node, l.CPU)
}

// Classify returns the link class connecting two locations.
func Classify(a, b Loc) LinkClass {
	if a.Metahost != b.Metahost {
		return External
	}
	if a.Node != b.Node {
		return Internal
	}
	return SameNode
}

// Placement assigns every global MPI rank a location. Ranks are dense,
// 0..N-1, in the order they were placed.
type Placement struct {
	mc    *Metacomputer
	Ranks []Loc
	used  map[Loc]int // occupancy per (metahost,node,cpu) slot
}

// NewPlacement starts an empty placement on mc.
func NewPlacement(mc *Metacomputer) *Placement {
	return &Placement{mc: mc, used: make(map[Loc]int)}
}

// Metacomputer returns the topology this placement refers to.
func (p *Placement) Metacomputer() *Metacomputer { return p.mc }

// N returns the number of placed ranks.
func (p *Placement) N() int { return len(p.Ranks) }

// Place assigns the next `nodes × perNode` ranks to the given metahost,
// filling nodes starting at firstNode, perNode processes per node (CPU
// slots 0..perNode-1). It returns the range of global ranks created.
func (p *Placement) Place(metahost, firstNode, nodes, perNode int) (lo, hi int, err error) {
	m := p.mc.Metahost(metahost)
	if m == nil {
		return 0, 0, fmt.Errorf("topology: unknown metahost id %d", metahost)
	}
	if firstNode < 0 || firstNode+nodes > m.Nodes {
		return 0, 0, fmt.Errorf("topology: metahost %q has %d nodes, cannot place on nodes [%d,%d)",
			m.Name, m.Nodes, firstNode, firstNode+nodes)
	}
	if perNode > m.CPUs {
		return 0, 0, fmt.Errorf("topology: metahost %q has %d CPUs per node, requested %d per node",
			m.Name, m.CPUs, perNode)
	}
	lo = len(p.Ranks)
	for n := firstNode; n < firstNode+nodes; n++ {
		for c := 0; c < perNode; c++ {
			loc := Loc{Metahost: metahost, Node: n, CPU: c}
			if p.used[loc] > 0 {
				return 0, 0, fmt.Errorf("topology: slot %v already occupied", loc)
			}
			p.used[loc]++
			p.Ranks = append(p.Ranks, loc)
		}
	}
	return lo, len(p.Ranks), nil
}

// MustPlace is Place but panics on error; convenient in presets whose
// arguments are compile-time constants.
func (p *Placement) MustPlace(metahost, firstNode, nodes, perNode int) (lo, hi int) {
	lo, hi, err := p.Place(metahost, firstNode, nodes, perNode)
	if err != nil {
		panic(err)
	}
	return lo, hi
}

// Loc returns the location of a global rank.
func (p *Placement) Loc(rank int) Loc { return p.Ranks[rank] }

// RanksOn returns the global ranks placed on the given metahost, in
// ascending order.
func (p *Placement) RanksOn(metahost int) []int {
	var out []int
	for r, loc := range p.Ranks {
		if loc.Metahost == metahost {
			out = append(out, r)
		}
	}
	return out
}

// MetahostsUsed returns the ids of metahosts that host at least one
// rank, ascending.
func (p *Placement) MetahostsUsed() []int {
	set := make(map[int]bool)
	for _, loc := range p.Ranks {
		set[loc.Metahost] = true
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Validate checks that every rank's location exists in the topology.
func (p *Placement) Validate() error {
	if len(p.Ranks) == 0 {
		return fmt.Errorf("topology: empty placement")
	}
	for r, loc := range p.Ranks {
		m := p.mc.Metahost(loc.Metahost)
		if m == nil {
			return fmt.Errorf("topology: rank %d on unknown metahost %d", r, loc.Metahost)
		}
		if loc.Node < 0 || loc.Node >= m.Nodes {
			return fmt.Errorf("topology: rank %d on node %d of metahost %q (has %d nodes)",
				r, loc.Node, m.Name, m.Nodes)
		}
		if loc.CPU < 0 || loc.CPU >= m.CPUs {
			return fmt.Errorf("topology: rank %d on cpu %d of metahost %q (has %d cpus/node)",
				r, loc.CPU, m.Name, m.CPUs)
		}
	}
	return nil
}

// Describe renders a human-readable schematic of the metacomputer,
// reproducing the information content of the paper's Figure 2
// (metacomputer schematic) and Figure 5 (VIOLA topology).
func (mc *Metacomputer) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Metacomputer %q: %d metahosts\n", mc.Name, len(mc.Metahosts))
	for _, m := range mc.Metahosts {
		fmt.Fprintf(&b, "  [%d] %-10s %s\n", m.ID, m.Name, m.Site)
		fmt.Fprintf(&b, "      %d nodes x %d CPUs  (%s)\n", m.Nodes, m.CPUs, m.Arch)
		fmt.Fprintf(&b, "      internal %-18s lat %8.1f us (sd %.3f us)  bw %6.2f Gbps\n",
			m.Interconnect,
			m.Internal.LatencyMean*1e6, m.Internal.LatencySD*1e6, m.Internal.Bandwidth*8/1e9)
	}
	b.WriteString("  external links:\n")
	for i := 0; i < len(mc.Metahosts); i++ {
		for j := i + 1; j < len(mc.Metahosts); j++ {
			l := mc.ExternalLink(i, j)
			kind := "shared"
			if l.Dedicated {
				kind = "dedicated"
			}
			fmt.Fprintf(&b, "      %s -- %s: lat %8.1f us (sd %.3f us)  bw %6.2f Gbps  (%s)\n",
				mc.Metahosts[i].Name, mc.Metahosts[j].Name,
				l.LatencyMean*1e6, l.LatencySD*1e6, l.Bandwidth*8/1e9, kind)
		}
	}
	return b.String()
}
