package scenario

import (
	"fmt"

	"metascope/internal/mmpi"
)

// presetNames lists the accepted topology presets. "conformance" is
// the deterministic testbed (auto-sized to the placement); the others
// are the paper's systems from internal/topology.
var presetNames = map[string]bool{
	"conformance":  true,
	"viola":        true,
	"viola-shared": true,
	"ibm-power":    true,
}

var burstClasses = map[string]bool{
	"external": true, "internal": true, "same-node": true, "any": true,
}

// Validate enforces range and consistency rules on a decoded Spec and
// fills derived defaults (name, halo2d grid, amr window). Parse calls
// it; callers constructing a Spec in Go should call it themselves.
func (sp *Spec) Validate() error {
	bad := func(path, format string, args ...interface{}) error {
		return errAt(0, path, format, args...)
	}
	kernelOK := false
	for _, k := range Kernels() {
		if sp.Kernel == k {
			kernelOK = true
		}
	}
	if !kernelOK {
		return bad("kernel", "unknown kernel %q (want one of %v)", sp.Kernel, Kernels())
	}
	if sp.Name == "" {
		sp.Name = sp.Kernel
	}
	if sp.Ranks < 2 || sp.Ranks > maxRanks {
		return bad("ranks", "want 2..%d ranks, got %d", maxRanks, sp.Ranks)
	}
	if sp.Iterations < 1 || sp.Iterations > maxIterations {
		return bad("iterations", "want 1..%d iterations, got %d", maxIterations, sp.Iterations)
	}
	if sp.Bytes < 1 || sp.Bytes > mmpi.DefaultEagerLimit {
		return bad("bytes", "want 1..%d bytes (the closed forms need eager messages), got %d",
			mmpi.DefaultEagerLimit, sp.Bytes)
	}
	if a := sp.Schedule.Align; a != 0 && (a < 0.5 || a > 1e4) {
		return bad("schedule.align", "want 0.5..1e4 seconds (0: derived), got %g", a)
	}
	if sp.Schedule.Slack < 0.05 || sp.Schedule.Slack > 100 {
		return bad("schedule.slack", "want 0.05..100 seconds, got %g", sp.Schedule.Slack)
	}
	if sp.Work.Base < 0 || sp.Work.Base > 100 {
		return bad("work.base", "want 0..100 work units, got %g", sp.Work.Base)
	}
	if sp.Work.Spread < 0 || sp.Work.Spread > 100 {
		return bad("work.spread", "want 0..100 work units, got %g", sp.Work.Spread)
	}

	if err := sp.validateTopo(); err != nil {
		return err
	}
	if err := sp.validatePlacement(); err != nil {
		return err
	}
	if err := sp.validateKernel(); err != nil {
		return err
	}
	return sp.validateFaults()
}

func (sp *Spec) validateTopo() error {
	t := &sp.Topology
	bad := func(path, format string, args ...interface{}) error {
		return errAt(0, "topology."+path, format, args...)
	}
	if len(t.Metahosts) > 0 {
		if t.Preset != "" {
			return bad("preset", "preset and a custom metahosts list are mutually exclusive")
		}
		if len(t.Metahosts) > maxMetahosts {
			return bad("metahosts", "want at most %d metahosts, got %d", maxMetahosts, len(t.Metahosts))
		}
		seen := make(map[string]bool)
		for i, m := range t.Metahosts {
			p := fmt.Sprintf("metahosts[%d]", i)
			if m.Name == "" || seen[m.Name] {
				return bad(p+".name", "metahost names must be unique and non-empty, got %q", m.Name)
			}
			seen[m.Name] = true
			if m.Nodes < 1 || m.Nodes > maxNodes {
				return bad(p+".nodes", "want 1..%d nodes, got %d", maxNodes, m.Nodes)
			}
			if m.CPUs < 1 || m.CPUs > 64 {
				return bad(p+".cpus", "want 1..64 CPUs per node, got %d", m.CPUs)
			}
			if m.Speed <= 0 || m.Speed > 1e3 {
				return bad(p+".speed", "want a speed factor in (0, 1e3], got %g", m.Speed)
			}
			if err := validateLink(&m.Internal, "topology."+p+".internal"); err != nil {
				return err
			}
			if m.NodeLocal != nil {
				if err := validateLink(m.NodeLocal, "topology."+p+".node_local"); err != nil {
					return err
				}
			}
			c := m.Clock
			if c.MaxOffsetMS < 0 || c.MaxOffsetMS > 1e3 {
				return bad(p+".clock.max_offset_ms", "want 0..1e3 ms, got %g", c.MaxOffsetMS)
			}
			if c.MaxDriftPPM < 0 || c.MaxDriftPPM > 1e3 {
				return bad(p+".clock.max_drift_ppm", "want 0..1e3 ppm, got %g", c.MaxDriftPPM)
			}
			if c.GranularityUS < 0 || c.GranularityUS > 1e3 {
				return bad(p+".clock.granularity_us", "want 0..1e3 us, got %g", c.GranularityUS)
			}
		}
	} else {
		if !presetNames[t.Preset] {
			return bad("preset", "unknown preset %q (want conformance | viola | viola-shared | ibm-power)", t.Preset)
		}
		if t.Preset == "conformance" && (t.Count < 1 || t.Count > maxMetahosts) {
			return bad("count", "want 1..%d metahosts, got %d", maxMetahosts, t.Count)
		}
	}
	if t.External != nil {
		if err := validateLink(t.External, "topology.external"); err != nil {
			return err
		}
	}
	return nil
}

func validateLink(l *LinkSpec, path string) error {
	if l.LatencyUS <= 0 || l.LatencyUS > 1e7 {
		return errAt(0, path+".latency_us", "want (0, 1e7] us, got %g", l.LatencyUS)
	}
	if l.JitterUS < 0 || l.JitterUS > 1e6 {
		return errAt(0, path+".jitter_us", "want 0..1e6 us, got %g", l.JitterUS)
	}
	if l.BandwidthGbps <= 0 || l.BandwidthGbps > 1e4 {
		return errAt(0, path+".bandwidth_gbps", "want (0, 1e4] Gbps, got %g", l.BandwidthGbps)
	}
	return nil
}

func (sp *Spec) validatePlacement() error {
	if len(sp.Placement) == 0 {
		return nil // Compile derives an even block split
	}
	if err := checkListLen("placement", len(sp.Placement)); err != nil {
		return err
	}
	total := 0
	for i, p := range sp.Placement {
		path := fmt.Sprintf("placement[%d]", i)
		if p.Metahost < 0 || p.Metahost >= maxMetahosts {
			return errAt(0, path+".metahost", "want 0..%d, got %d", maxMetahosts-1, p.Metahost)
		}
		if p.FirstNode < 0 || p.FirstNode > maxNodes {
			return errAt(0, path+".first_node", "want 0..%d, got %d", maxNodes, p.FirstNode)
		}
		if p.Nodes < 1 || p.Nodes > maxNodes {
			return errAt(0, path+".nodes", "want 1..%d, got %d", maxNodes, p.Nodes)
		}
		if p.PerNode < 1 || p.PerNode > 64 {
			return errAt(0, path+".per_node", "want 1..64, got %d", p.PerNode)
		}
		total += p.Nodes * p.PerNode
	}
	if total != sp.Ranks {
		return errAt(0, "placement", "placement blocks cover %d ranks, scenario has ranks: %d", total, sp.Ranks)
	}
	return nil
}

func (sp *Spec) validateKernel() error {
	p := &sp.Params
	switch sp.Kernel {
	case KernelHalo1D:
		// any rank count ≥ 2 works
	case KernelHalo2D:
		if p.PX == 0 && p.PY == 0 {
			return errAt(0, "params", "halo2d requires params.px and params.py")
		}
		if p.PX < 2 || p.PY < 2 || p.PX > maxRanks || p.PY > maxRanks {
			return errAt(0, "params", "halo2d wants px, py in 2..%d, got %dx%d", maxRanks, p.PX, p.PY)
		}
		if p.PX*p.PY != sp.Ranks {
			return errAt(0, "params", "halo2d grid %dx%d needs %d ranks, scenario has ranks: %d",
				p.PX, p.PY, p.PX*p.PY, sp.Ranks)
		}
	case KernelMasterWorker:
		if p.Prep <= 0 || p.Prep > 100 {
			return errAt(0, "params.prep", "want (0, 100] seconds, got %g", p.Prep)
		}
		if p.PrepSpread < 0 || p.PrepSpread > 100 {
			return errAt(0, "params.prep_spread", "want 0..100 seconds, got %g", p.PrepSpread)
		}
		if p.Collect <= 0 || p.Collect > 100 {
			return errAt(0, "params.collect", "want (0, 100] seconds, got %g", p.Collect)
		}
		if p.CollectSpread < 0 || p.CollectSpread > 100 {
			return errAt(0, "params.collect_spread", "want 0..100 seconds, got %g", p.CollectSpread)
		}
	case KernelAMR:
		if p.Window == 0 {
			p.Window = sp.Ranks / 4
			if p.Window < 1 {
				p.Window = 1
			}
		}
		if p.Window < 1 || p.Window > sp.Ranks {
			return errAt(0, "params.window", "want 1..ranks (%d), got %d", sp.Ranks, p.Window)
		}
		if p.Amp <= 0 || p.Amp > 100 {
			return errAt(0, "params.amp", "want (0, 100] work units, got %g", p.Amp)
		}
	case KernelStraggler:
		if len(sp.Faults.Stragglers) == 0 {
			return errAt(0, "faults.stragglers", "the straggler kernel needs at least one straggler fault")
		}
	}
	phases := map[string]int{
		KernelHalo1D: 2, KernelHalo2D: 4, KernelMasterWorker: 2,
		KernelAMR: 1, KernelStraggler: 1,
	}[sp.Kernel]
	if steps := sp.Ranks * sp.Iterations * phases; steps > maxSteps {
		return errAt(0, "", "scenario compiles to %d rank-steps (limit %d); shrink ranks or iterations",
			steps, maxSteps)
	}
	return nil
}

// checkListLen bounds a list however the Spec was built: decoded from
// a document or assembled in Go.
func checkListLen(path string, n int) error {
	if n > maxListLen {
		return errAt(0, path, "list has %d entries (limit %d)", n, maxListLen)
	}
	return nil
}

func (sp *Spec) validateFaults() error {
	if err := checkListLen("faults.stragglers", len(sp.Faults.Stragglers)); err != nil {
		return err
	}
	for i, s := range sp.Faults.Stragglers {
		path := fmt.Sprintf("faults.stragglers[%d]", i)
		if s.Rank < 0 || s.Rank >= sp.Ranks {
			return errAt(0, path+".rank", "want 0..%d, got %d", sp.Ranks-1, s.Rank)
		}
		if s.Factor <= 0 || s.Factor > 100 {
			return errAt(0, path+".factor", "want (0, 100], got %g", s.Factor)
		}
		if s.From < 0 || s.From > s.To {
			return errAt(0, path, "want 0 <= from <= to, got from=%d to=%d", s.From, s.To)
		}
	}
	if err := checkListLen("faults.cross_traffic", len(sp.Faults.CrossTraffic)); err != nil {
		return err
	}
	for i, b := range sp.Faults.CrossTraffic {
		path := fmt.Sprintf("faults.cross_traffic[%d]", i)
		if b.From < 0 || b.To <= b.From || b.To > 1e6 {
			return errAt(0, path, "want 0 <= from < to <= 1e6 seconds, got [%g, %g)", b.From, b.To)
		}
		if b.ExtraMS <= 0 || b.ExtraMS > 100 {
			return errAt(0, path+".extra_ms", "want (0, 100] ms, got %g", b.ExtraMS)
		}
		if !burstClasses[b.Class] {
			return errAt(0, path+".class", "unknown link class %q (want external | internal | same-node | any)", b.Class)
		}
	}
	if err := checkListLen("faults.truncate", len(sp.Faults.Truncate)); err != nil {
		return err
	}
	for i, tr := range sp.Faults.Truncate {
		path := fmt.Sprintf("faults.truncate[%d]", i)
		if tr.Rank < 0 || tr.Rank >= sp.Ranks {
			return errAt(0, path+".rank", "want 0..%d, got %d", sp.Ranks-1, tr.Rank)
		}
		if tr.Keep <= 0.01 || tr.Keep > 0.99 {
			return errAt(0, path+".keep", "want a fraction in (0.01, 0.99], got %g", tr.Keep)
		}
	}
	return nil
}
