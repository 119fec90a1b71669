package scenario

import (
	"fmt"
	"sort"
	"strings"

	"metascope"
	"metascope/internal/archive"
	"metascope/internal/measure"
	"metascope/internal/topology"
)

// CompletionPerCall is the per-collective-call bound on incidental
// completion time (BarrierCompletion, NxNCompletion) a generated
// kernel may accumulate on the deterministic testbed, and the bound the
// planted conformance scenarios are checked against. Completion is
// dissemination skew over the testbed's links, not planted imbalance, so
// it has no closed form; it stays a few link latencies, far below this
// bound and far below any planted delay.
const CompletionPerCall = 0.02

// Expectation is the closed-form analysis ground truth of a compiled
// scenario: what the replay analyzer must recover from the generated
// archive.
type Expectation struct {
	// Exact reports that the closed forms hold at conformance.ExactTol
	// under the interpolation schemes: deterministic links (no jitter,
	// dedicated), zero clock granularity, and route asymmetry disabled.
	Exact bool
	// Err marks scenarios whose archive is deliberately damaged
	// (truncation faults): analysis must fail with a structured error.
	Err bool
	// Horizon bounds the distance of any event from the start sync —
	// the FlatSingle drift-tolerance horizon.
	Horizon float64
	// Keys maps metric key → rank → expected inclusive severity in
	// true seconds (multiply by the master-clock scale for corrected
	// seconds). Keys absent here must analyze to exactly zero, except
	// those listed in Bounds.
	Keys map[string]map[int]float64
	// Bounds maps metric key → per-rank upper bound for metrics with
	// no closed form (collective completion).
	Bounds map[string]float64
	// Steps resolves Keys per aligned step: Steps[i] carries the same
	// metric key → rank → severity structure restricted to the
	// severities planted in step i, one entry per schedule phase (nil
	// maps for steps planting nothing). Summing Steps over i
	// reproduces Keys, and detected phase i of the analyzed archive
	// must match Steps[i] — the per-iteration oracle.
	Steps []map[string]map[int]float64
	// StepBounds maps metric key → per-rank per-step upper bound for
	// the completion metrics (one collective call per step).
	StepBounds map[string]float64
}

func (e *Expectation) add(key string, rank int, v float64) {
	if v <= 0 {
		return
	}
	m := e.Keys[key]
	if m == nil {
		m = make(map[int]float64)
		e.Keys[key] = m
	}
	m[rank] += v
}

// opKind is the blocking communication construct closing a rank's
// aligned step.
type opKind int

const (
	opNone opKind = iota
	opSendrecv
	opSend
	opRecv
	opBarrier
	opAllreduce
	opHandout // master: per-worker prep + Isend, then Waitall
	opCollect // master: Irecv every worker, then Waitall
)

type rankOp struct {
	kind    opKind
	peer    int
	workers []int     // opHandout/opCollect: peer ranks in post order
	prep    []float64 // opHandout: per-worker prep seconds, same order
}

// phase is one aligned global step of the compiled schedule.
type phase struct {
	name string
	at   float64 // absolute start time every rank sleeps to
	dur  float64
	work []float64 // per-rank pre-op work in seconds
	ops  []rankOp
}

// Program is a compiled scenario: topology recipe, aligned schedule,
// per-rank work tables, fault hooks, and the closed-form expectation.
type Program struct {
	Spec   *Spec
	Expect Expectation

	phases []phase
	locs   []topology.Loc
	speed  []float64
}

// planCtx carries the shared state kernel planners fill in.
type planCtx struct {
	sp       *Spec
	locs     []topology.Loc
	speed    []float64
	rng      *rng
	exp      *Expectation
	spanning bool // world communicator spans metahosts
	// step is the schedule index of the phase currently being planned;
	// planners set it before emitting expectations so add can resolve
	// them per step.
	step int
}

// add plants one expected severity in both the global table and the
// per-step table of the phase being planned. The global map is
// updated first with the identical call sequence the planners always
// produced, so the per-step resolution cannot perturb Keys' floats.
func (c *planCtx) add(key string, rank int, v float64) {
	if v <= 0 {
		return
	}
	c.exp.add(key, rank, v)
	for len(c.exp.Steps) <= c.step {
		c.exp.Steps = append(c.exp.Steps, nil)
	}
	m := c.exp.Steps[c.step]
	if m == nil {
		m = make(map[string]map[int]float64)
		c.exp.Steps[c.step] = m
	}
	sm := m[key]
	if sm == nil {
		sm = make(map[int]float64)
		m[key] = sm
	}
	sm[rank] += v
}

// stragglerFactor returns the work multiplier fault injection applies
// to the given rank in the given iteration.
func (c *planCtx) stragglerFactor(rank, iter int) float64 {
	f := 1.0
	for _, s := range c.sp.Faults.Stragglers {
		if s.Rank == rank && iter >= s.From && iter <= s.To {
			f *= s.Factor
		}
	}
	return f
}

// draw returns one work amount in seconds for the given rank and
// iteration: base + uniform spread, straggler-scaled, speed-scaled.
func (c *planCtx) draw(rank, iter int) float64 {
	w := c.sp.Work.Base + c.sp.Work.Spread*c.rng.float()
	return w * c.stragglerFactor(rank, iter) / c.speed[rank]
}

// crossMH reports whether two ranks sit on different metahosts — the
// grid-variant test for point-to-point instances.
func (c *planCtx) crossMH(a, b int) bool {
	return c.locs[a].Metahost != c.locs[b].Metahost
}

// Compile lowers a validated Spec into a Program. It builds the
// topology once to resolve placement and speeds, plans the kernel's
// aligned phases and work tables from the scenario PRNG, computes the
// schedule, and derives the expectation.
func (sp *Spec) Compile() (*Program, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	topo, place, err := sp.buildTopology()
	if err != nil {
		return nil, err
	}
	sp.deriveAlign(place.Ranks)
	locs := append([]topology.Loc(nil), place.Ranks...)
	speed := make([]float64, len(locs))
	for r, loc := range locs {
		speed[r] = topo.Metahost(loc.Metahost).SpeedFor(sp.Kernel)
	}
	spanning := false
	for _, loc := range locs[1:] {
		if loc.Metahost != locs[0].Metahost {
			spanning = true
		}
	}
	ctx := &planCtx{
		sp:    sp,
		locs:  locs,
		speed: speed,
		rng:   newRNG(sp.Seed, sp.Kernel),
		exp: &Expectation{
			Keys:       make(map[string]map[int]float64),
			Bounds:     make(map[string]float64),
			StepBounds: make(map[string]float64),
		},
		spanning: spanning,
	}
	var phases []phase
	switch sp.Kernel {
	case KernelHalo1D:
		phases = planHalo1D(ctx)
	case KernelHalo2D:
		phases = planHalo2D(ctx)
	case KernelMasterWorker:
		phases = planMasterWorker(ctx)
	case KernelAMR:
		phases = planAMR(ctx)
	case KernelStraggler:
		phases = planStraggler(ctx)
	default:
		return nil, errAt(0, "kernel", "unknown kernel %q", sp.Kernel)
	}

	// Pad Steps to the full schedule so Steps[i] is addressable for
	// every phase, including trailing steps that plant nothing.
	for len(ctx.exp.Steps) < len(phases) {
		ctx.exp.Steps = append(ctx.exp.Steps, nil)
	}

	p := &Program{Spec: sp, Expect: *ctx.exp, phases: phases, locs: locs, speed: speed}
	if err := p.schedule(); err != nil {
		return nil, err
	}
	p.Expect.Exact = sp.exactTopology(topo)
	p.Expect.Err = len(sp.Faults.Truncate) > 0
	last := p.phases[len(p.phases)-1]
	p.Expect.Horizon = last.at + last.dur + 1.0
	if err := p.checkBurstWindows(); err != nil {
		return nil, err
	}
	p.completionBounds()
	return p, nil
}

// deriveAlign fills schedule.align when the document leaves it out (or
// 0). The start-of-run offset measurement has the global master, rank
// 0, answer every rank off its metahost in turn, about 20 ms of simulated
// time each over the wide-area link, so the first step starts 25 ms per
// such rank after t = 0, and at 2 s at least: two metahosts keep 2 s up
// to 80 ranks each.
func (sp *Spec) deriveAlign(locs []topology.Loc) {
	if sp.Schedule.Align != 0 {
		return
	}
	off := 0
	for _, l := range locs {
		if l.Metahost != locs[0].Metahost {
			off++
		}
	}
	sp.Schedule.Align = max(2, 0.025*float64(off))
}

// burstExtra returns the worst-case summed one-way latency injection
// (seconds) active at any instant.
func (sp *Spec) burstExtra() float64 {
	total := 0.0
	for _, b := range sp.Faults.CrossTraffic {
		total += b.ExtraMS * 1e-3
	}
	return total
}

// collRounds upper-bounds a dissemination collective's round count.
func collRounds(n int) int {
	r := 1
	for (1 << r) < n {
		r++
	}
	return r + 1
}

// schedule assigns each phase its aligned start time: the previous
// phase's start plus its worst-case duration (work plus op estimate)
// plus slack, widened for cross-traffic injection so an active burst
// can never make a rank overrun its next alignment point.
func (p *Program) schedule() error {
	sp := p.Spec
	margin := sp.Schedule.Slack + sp.burstExtra()*float64(collRounds(sp.Ranks)+2)
	at := sp.Schedule.Align
	for i := range p.phases {
		ph := &p.phases[i]
		ph.at = at
		worst := 0.0
		for r, w := range ph.work {
			est := w
			if ph.ops[r].kind == opHandout {
				for _, d := range ph.ops[r].prep {
					est += d
				}
			}
			if est > worst {
				worst = est
			}
		}
		ph.dur = worst + margin
		at += ph.dur
	}
	return nil
}

// checkBurstWindows rejects cross-traffic windows that would overlap
// the start or end clock-offset measurements: a burst straddling a
// ping-pong pair injects asymmetric latency and breaks the exactness
// the kernels' closed forms are checked under.
func (p *Program) checkBurstWindows() error {
	lastAt := p.phases[len(p.phases)-1].at
	align := p.Spec.Schedule.Align
	for i, b := range p.Spec.Faults.CrossTraffic {
		if b.From < align || b.To > lastAt {
			return errAt(0, fmt.Sprintf("faults.cross_traffic[%d]", i),
				"window [%g, %g) must lie within [schedule.align, start of the last phase] = [%g, %g] so clock synchronization stays undisturbed",
				b.From, b.To, align, lastAt)
		}
	}
	return nil
}

// completionBounds widens the per-call completion bound for scenarios
// with cross-traffic: dissemination rounds during a burst each pay
// the extra latency.
func (p *Program) completionBounds() {
	if len(p.Expect.Bounds) == 0 {
		return
	}
	extra := p.Spec.burstExtra() * float64(collRounds(p.Spec.Ranks))
	for k, v := range p.Expect.Bounds {
		calls := v / CompletionPerCall
		p.Expect.Bounds[k] = v + calls*extra
	}
	for k, v := range p.Expect.StepBounds {
		calls := v / CompletionPerCall
		p.Expect.StepBounds[k] = v + calls*extra
	}
}

// exactTopology reports whether the built topology keeps Cristian's
// offset measurements exact: deterministic dedicated links, zero read
// granularity, and no route asymmetry.
func (sp *Spec) exactTopology(topo *topology.Metacomputer) bool {
	if sp.Topology.Asymmetry {
		return false
	}
	det := func(l topology.Link) bool { return l.LatencySD == 0 && l.Dedicated }
	for _, m := range topo.Metahosts {
		if !det(m.Internal) || !det(m.NodeLocal) || m.Clock.Granularity != 0 {
			return false
		}
	}
	if !det(topo.DefaultExternal) {
		return false
	}
	for i := range topo.Metahosts {
		for j := i + 1; j < len(topo.Metahosts); j++ {
			if !det(topo.ExternalLink(i, j)) {
				return false
			}
		}
	}
	return true
}

// defaultShm is the node-local link used when a custom metahost does
// not specify one — the conformance testbed's shared-memory segment.
var defaultShm = topology.Link{LatencyMean: 2e-6, Bandwidth: 2e9, Dedicated: true}

func linkFromSpec(l *LinkSpec) topology.Link {
	out := topology.Link{
		LatencyMean: l.LatencyUS * 1e-6,
		LatencySD:   l.JitterUS * 1e-6,
		Bandwidth:   l.BandwidthGbps * 125e6,
		Dedicated:   true,
	}
	if l.Dedicated != nil {
		out.Dedicated = *l.Dedicated
	}
	return out
}

// placementBlocks returns the effective placement: the spec's blocks,
// or an even block split of the ranks over the metahosts.
func (sp *Spec) placementBlocks(metahosts int) []PlaceSpec {
	if len(sp.Placement) > 0 {
		return sp.Placement
	}
	n, m := sp.Ranks, metahosts
	if m > n {
		m = n
	}
	base, rem := n/m, n%m
	var out []PlaceSpec
	for i := 0; i < m; i++ {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, PlaceSpec{Metahost: i, Nodes: size, PerNode: 1})
	}
	return out
}

// buildTopology instantiates the metacomputer and placement a fresh
// time — placements are stateful, so every experiment needs its own.
func (sp *Spec) buildTopology() (*topology.Metacomputer, *topology.Placement, error) {
	t := &sp.Topology
	var mc *topology.Metacomputer
	var blocks []PlaceSpec
	switch {
	case len(t.Metahosts) > 0:
		mc = topology.New(sp.Name)
		for _, m := range t.Metahosts {
			mh := &topology.Metahost{
				Name: m.Name, Site: "scenario", Arch: "scenario model",
				Nodes: m.Nodes, CPUs: m.CPUs,
				Interconnect: "scenario", Internal: linkFromSpec(&m.Internal),
				NodeLocal: defaultShm,
				Clock: topology.ClockSpec{
					MaxOffset:    m.Clock.MaxOffsetMS * 1e-3,
					MaxDrift:     m.Clock.MaxDriftPPM * 1e-6,
					Granularity:  m.Clock.GranularityUS * 1e-6,
					Synchronized: m.Clock.Synchronized,
				},
				Speed: map[string]float64{"": m.Speed},
			}
			if m.NodeLocal != nil {
				mh.NodeLocal = linkFromSpec(m.NodeLocal)
			}
			mc.AddMetahost(mh)
		}
		mc.DefaultExternal = topology.Link{LatencyMean: 500e-6, Bandwidth: 1.25e9, Dedicated: true}
		blocks = sp.placementBlocks(len(t.Metahosts))
	case t.Preset == "conformance":
		blocks = sp.placementBlocks(t.Count)
		nodes := 1
		for _, b := range blocks {
			if need := b.FirstNode + b.Nodes; need > nodes {
				nodes = need
			}
		}
		mc = topology.ConformanceTestbed(t.Count, nodes)
	case t.Preset == "viola":
		mc = topology.VIOLA()
		blocks = sp.placementBlocks(len(mc.Metahosts))
	case t.Preset == "viola-shared":
		mc = topology.VIOLAShared()
		blocks = sp.placementBlocks(len(mc.Metahosts))
	case t.Preset == "ibm-power":
		mc = topology.IBMPower()
		blocks = sp.placementBlocks(len(mc.Metahosts))
	default:
		return nil, nil, errAt(0, "topology.preset", "unknown preset %q", t.Preset)
	}
	if t.External != nil {
		mc.DefaultExternal = linkFromSpec(t.External)
	}
	if err := mc.Validate(); err != nil {
		return nil, nil, errAt(0, "topology", "%v", err)
	}
	place := topology.NewPlacement(mc)
	for i, b := range blocks {
		if _, _, err := place.Place(b.Metahost, b.FirstNode, b.Nodes, b.PerNode); err != nil {
			return nil, nil, errAt(0, fmt.Sprintf("placement[%d]", i), "%v", err)
		}
	}
	if place.N() != sp.Ranks {
		return nil, nil, errAt(0, "placement", "placement covers %d ranks, scenario has ranks: %d", place.N(), sp.Ranks)
	}
	return mc, place, nil
}

// NewExperiment builds (but does not run) a measured experiment for
// the program: fresh topology and placement, route asymmetry disabled
// unless the scenario opts in, cross-traffic bursts installed, and
// the scenario's trace format selected.
func (p *Program) NewExperiment(title string, seed int64) (*metascope.Experiment, error) {
	sp := p.Spec
	topo, place, err := sp.buildTopology()
	if err != nil {
		return nil, err
	}
	e := metascope.NewExperiment(title, topo, place, seed)
	if !sp.Topology.Asymmetry {
		e.AsymFrac = -1
	}
	e.TraceFormat = sp.Format
	if bursts := sp.Faults.CrossTraffic; len(bursts) > 0 {
		bs := append([]BurstSpec(nil), bursts...)
		e.CrossTraffic = func(now float64, class topology.LinkClass) float64 {
			extra := 0.0
			for _, b := range bs {
				if now < b.From || now >= b.To {
					continue
				}
				switch b.Class {
				case "any":
				case "external":
					if class != topology.External {
						continue
					}
				case "internal":
					if class != topology.Internal {
						continue
					}
				case "same-node":
					if class != topology.SameNode {
						continue
					}
				}
				extra += b.ExtraMS * 1e-3
			}
			return extra
		}
	}
	if err := e.Build(); err != nil {
		return nil, err
	}
	return e, nil
}

// Body is the measured workload: every rank walks its aligned steps —
// sleep to the alignment point, elapse the planned work, issue the
// step's communication construct.
func (p *Program) Body(m *measure.M) {
	pr := m.Proc()
	w := m.World()
	r := m.Rank()
	m.InRegion(p.Spec.Kernel, func() {
		for pi := range p.phases {
			ph := &p.phases[pi]
			if pr.Now() > ph.at {
				pr.Engine().Fail(fmt.Errorf(
					"scenario %s: rank %d reached phase %q at t=%.6f, after its alignment point %.6f; raise schedule.slack",
					p.Spec.Name, r, ph.name, pr.Now(), ph.at))
				return
			}
			pr.Sim().SleepUntil(ph.at)
			if wk := ph.work[r]; wk > 0 {
				m.Elapse(wk)
			}
			op := ph.ops[r]
			tag := pi
			switch op.kind {
			case opSendrecv:
				w.Sendrecv(op.peer, tag, p.Spec.Bytes, op.peer, tag)
			case opSend:
				w.Send(op.peer, tag, p.Spec.Bytes)
			case opRecv:
				w.Recv(op.peer, tag)
			case opBarrier:
				w.Barrier()
			case opAllreduce:
				w.Allreduce(8)
			case opHandout:
				reqs := make([]*measure.Request, 0, len(op.workers))
				for i, wkr := range op.workers {
					m.Elapse(op.prep[i])
					reqs = append(reqs, w.Isend(wkr, tag, p.Spec.Bytes))
				}
				w.Waitall(reqs)
			case opCollect:
				reqs := make([]*measure.Request, 0, len(op.workers))
				for _, wkr := range op.workers {
					reqs = append(reqs, w.Irecv(wkr, tag))
				}
				w.Waitall(reqs)
			}
		}
	})
}

// Run measures the program through the normal pipeline and applies
// post-measurement faults to the archive.
func (p *Program) Run(title string, seed int64) (*metascope.Experiment, error) {
	e, err := p.NewExperiment(title, seed)
	if err != nil {
		return nil, err
	}
	if err := e.Run(p.Body); err != nil {
		return nil, err
	}
	if err := p.PostProcess(e.Mounts(), e.ArchiveDir); err != nil {
		return nil, err
	}
	return e, nil
}

// PostProcess applies archive-level faults after measurement: trace
// truncation cuts a rank's file to the configured fraction, modelling
// a rank that died mid-run.
func (p *Program) PostProcess(mounts *archive.Mounts, dir string) error {
	for _, tr := range p.Spec.Faults.Truncate {
		fs := mounts.For(p.locs[tr.Rank].Metahost)
		if fs == nil {
			return fmt.Errorf("scenario %s: no mount for rank %d's metahost %d",
				p.Spec.Name, tr.Rank, p.locs[tr.Rank].Metahost)
		}
		path := archive.TraceFile(dir, tr.Rank)
		data, err := archive.ReadFile(fs, path)
		if err != nil {
			return fmt.Errorf("scenario %s: truncating rank %d: %w", p.Spec.Name, tr.Rank, err)
		}
		keep := int(float64(len(data)) * tr.Keep)
		if keep < 1 {
			keep = 1
		}
		f, err := fs.Create(path)
		if err != nil {
			return fmt.Errorf("scenario %s: truncating rank %d: %w", p.Spec.Name, tr.Rank, err)
		}
		if _, err := f.Write(data[:keep]); err != nil {
			f.Close()
			return fmt.Errorf("scenario %s: truncating rank %d: %w", p.Spec.Name, tr.Rank, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("scenario %s: truncating rank %d: %w", p.Spec.Name, tr.Rank, err)
		}
	}
	return nil
}

// N returns the scenario's rank count.
func (p *Program) N() int { return p.Spec.Ranks }

// Phases returns the number of aligned steps in the schedule.
func (p *Program) Phases() int { return len(p.phases) }

// RankMetahost returns the metahost rank r was placed on — per-step
// oracles fold per-rank expectations to metahost granularity with it.
func (p *Program) RankMetahost(r int) int { return p.locs[r].Metahost }

// Describe renders the compiled plan: topology, placement, schedule,
// the closed-form expectation, and faults. The output is
// deterministic (sorted keys, fixed precision) so it golden-tests.
func (p *Program) Describe() string {
	sp := p.Spec
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %q: kernel %s, %d ranks, %d iterations, seed %d, format %s\n",
		sp.Name, sp.Kernel, sp.Ranks, sp.Iterations, sp.Seed, sp.Format)
	if len(sp.Topology.Metahosts) > 0 {
		fmt.Fprintf(&b, "topology: custom, %d metahosts\n", len(sp.Topology.Metahosts))
	} else {
		fmt.Fprintf(&b, "topology: %s preset\n", sp.Topology.Preset)
	}
	fmt.Fprintf(&b, "placement:\n")
	start := 0
	for start < len(p.locs) {
		end := start
		mh := p.locs[start].Metahost
		for end < len(p.locs) && p.locs[end].Metahost == mh {
			end++
		}
		fmt.Fprintf(&b, "  ranks %d-%d on metahost %d (speed %.3g)\n", start, end-1, mh, p.speed[start])
		start = end
	}
	last := p.phases[len(p.phases)-1]
	fmt.Fprintf(&b, "schedule: align %.3fs, %d phases, ends by t=%.3fs\n",
		sp.Schedule.Align, len(p.phases), last.at+last.dur)
	for i, ph := range p.phases {
		fmt.Fprintf(&b, "  phase %2d  %-18s t=%8.3f  dur=%7.3f\n", i, ph.name, ph.at, ph.dur)
	}
	fmt.Fprintf(&b, "expectation (true seconds, before master-clock scaling; exact=%v):\n", p.Expect.Exact)
	keys := make([]string, 0, len(p.Expect.Keys))
	for k := range p.Expect.Keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s:\n", k)
		m := p.Expect.Keys[k]
		ranks := make([]int, 0, len(m))
		for r := range m {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			fmt.Fprintf(&b, "    rank %3d: %12.9f\n", r, m[r])
		}
	}
	bkeys := make([]string, 0, len(p.Expect.Bounds))
	for k := range p.Expect.Bounds {
		bkeys = append(bkeys, k)
	}
	sort.Strings(bkeys)
	for _, k := range bkeys {
		fmt.Fprintf(&b, "  %s <= %.6f per rank (completion bound)\n", k, p.Expect.Bounds[k])
	}
	if f := sp.Faults; len(f.Stragglers)+len(f.CrossTraffic)+len(f.Truncate) > 0 {
		fmt.Fprintf(&b, "faults:\n")
		for _, s := range f.Stragglers {
			fmt.Fprintf(&b, "  straggler rank %d x%.3g over iterations %d-%d\n", s.Rank, s.Factor, s.From, s.To)
		}
		for _, c := range f.CrossTraffic {
			fmt.Fprintf(&b, "  cross-traffic +%.3gms on %s links over [%.3f, %.3f)\n", c.ExtraMS, c.Class, c.From, c.To)
		}
		for _, tr := range f.Truncate {
			fmt.Fprintf(&b, "  truncate rank %d trace to %.0f%% (analysis must fail)\n", tr.Rank, tr.Keep*100)
		}
	}
	if p.Expect.Err {
		fmt.Fprintf(&b, "analysis: expected to FAIL (damaged archive)\n")
	}
	return b.String()
}
