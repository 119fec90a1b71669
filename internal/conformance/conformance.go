// Package conformance is the analytic-oracle harness of the analysis
// pipeline: it plants wait-state pattern instances whose severities are
// known in closed form, drives them through the *normal* toolchain —
// measurement with virtual clocks, archive writing, trace encoding,
// hierarchical synchronization, parallel replay, cube and profile
// construction — and compares what the analyzer recovered against the
// planted ground truth.
//
// The oracle rests on the deterministic conformance testbed
// (topology.ConformanceTestbed): with zero latency jitter, symmetric
// dedicated links, and zero clock-read granularity, Cristian's offset
// measurements are exact, so the two-measurement interpolation schemes
// (FlatInterp, Hierarchical) recover the global master's clock as a
// time base exactly. A delay of D true seconds planted behind a
// communication operation then surfaces as a severity of D·(1+drift₀)
// corrected seconds, where drift₀ is the master clock's drift — the
// closed form every scenario is checked against. FlatSingle carries an
// uncompensated-drift error bounded by the clock spec, which
// FlatSingleTol turns into a wider but still rigorous tolerance.
package conformance

import (
	"fmt"
	"math"

	"metascope"
	"metascope/internal/cube"
	"metascope/internal/measure"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/topology"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// Scenario plants one wait-state pattern instance with known delays.
// One scenario is one complete experiment: len(Delays) ranks aligned at
// true time Align, each elapsing its delay before the single
// pattern-triggering operation.
type Scenario struct {
	Name string
	// Base is the planted base pattern: LateSender, LateReceiver,
	// WaitBarrier, WaitNxN, EarlyReduce, or LateBroadcast.
	Base pattern.ID
	// Grid selects the cross-metahost variant: ranks are split over two
	// metahosts so every planted instance crosses the boundary (p2p) or
	// the communicator spans metahosts (collectives). Intra scenarios
	// run on a single metahost and must leave the grid children at zero.
	Grid bool
	// Delays is the per-rank planted delay in true seconds; its length
	// sets the rank count. The meaning is per pattern: the sender's
	// lateness (LateSender), the receiver's lateness (LateReceiver), the
	// root's lateness (LateBroadcast), per-rank pre-collective work
	// (WaitBarrier, WaitNxN, EarlyReduce with root 0 at zero).
	Delays []float64
	// Align is the absolute simulation time every rank synchronizes to
	// before planting; it must lie after measurement initialization.
	Align float64
	// Bytes is the p2p payload size: below the eager limit for
	// LateSender (the send must not block), above it for LateReceiver
	// (the send must use the blocking rendezvous protocol).
	Bytes int
	// Format is the trace encoding the measured archive is written in
	// (trace.FormatV1, trace.FormatV2, or trace.FormatDefault for the
	// current default). The oracle runs over both concrete formats to
	// prove the encodings are analytically indistinguishable.
	Format trace.Format
}

// N returns the scenario's rank count.
func (s Scenario) N() int { return len(s.Delays) }

// PlantedKey returns the metric key the planted severities are stored
// under: the grid child for grid scenarios, the base key otherwise.
func (s Scenario) PlantedKey() string {
	if s.Grid {
		return s.Base.Gridded().MetricKey()
	}
	return s.Base.MetricKey()
}

// Expected returns the closed-form severity per rank in true seconds.
// Multiply by MasterScale to obtain corrected (master time base)
// seconds, the unit of cube severities.
func (s Scenario) Expected() map[int]float64 {
	out := make(map[int]float64, s.N())
	for r := range s.Delays {
		out[r] = 0
	}
	switch s.Base {
	case pattern.LateSender:
		// Receiver (rank 1) enters at Align, sender (rank 0) sends
		// Delays[0] late: the receiver waits exactly that long.
		out[1] = s.Delays[0]
	case pattern.LateReceiver:
		// Sender (rank 0) blocks in the rendezvous until the receiver
		// (rank 1) posts its receive Delays[1] late; the wait is
		// attributed at the sender.
		out[0] = s.Delays[1]
	case pattern.WaitBarrier, pattern.WaitNxN:
		// Every rank waits for the last entrant.
		max := 0.0
		for _, d := range s.Delays {
			if d > max {
				max = d
			}
		}
		for r, d := range s.Delays {
			out[r] = max - d
		}
	case pattern.EarlyReduce:
		// The root (rank 0, Delays[0] = 0) idles until the earliest
		// non-root enters; non-roots never wait in an n-to-1 operation.
		min := math.Inf(1)
		for r, d := range s.Delays {
			if r != 0 && d < min {
				min = d
			}
		}
		out[0] = min
	case pattern.LateBroadcast:
		// Non-roots enter at Align and wait for the root's data, which
		// cannot exist before the root enters Delays[0] later.
		for r := range s.Delays {
			if r != 0 {
				out[r] = s.Delays[0]
			}
		}
	default:
		panic(fmt.Sprintf("conformance: no closed form for pattern %v", s.Base))
	}
	return out
}

// NewExperiment builds (but does not run) the scenario's experiment on
// the deterministic testbed: one single-CPU node per rank so every rank
// has its own clock, split over two metahosts for grid scenarios, and
// route asymmetry disabled so offset measurements are exact.
func (s Scenario) NewExperiment(seed int64) (*metascope.Experiment, error) {
	n := s.N()
	metahosts := 1
	if s.Grid {
		metahosts = 2
	}
	topo := topology.ConformanceTestbed(metahosts, n)
	place := topology.NewPlacement(topo)
	if s.Grid {
		nA := (n + 1) / 2
		place.MustPlace(0, 0, nA, 1)
		place.MustPlace(1, 0, n-nA, 1)
	} else {
		place.MustPlace(0, 0, n, 1)
	}
	e := metascope.NewExperiment("conf-"+s.Name, topo, place, seed)
	e.AsymFrac = -1 // symmetric links: Cristian's method is then exact
	e.TraceFormat = s.Format
	if err := e.Build(); err != nil {
		return nil, err
	}
	return e, nil
}

// Body is the measured workload: align, delay, trigger the pattern.
func (s Scenario) Body(m *measure.M) {
	p := m.Proc()
	if p.Now() > s.Align {
		p.Engine().Fail(fmt.Errorf(
			"conformance: rank %d finished initialization at t=%.6f, after Align=%g; raise Scenario.Align",
			m.Rank(), p.Now(), s.Align))
		return
	}
	p.Sim().SleepUntil(s.Align)
	r := m.Rank()
	d := s.Delays[r]
	w := m.World()
	m.InRegion("plant", func() {
		const tag = 7
		switch s.Base {
		case pattern.LateSender:
			if r == 0 {
				m.Elapse(d)
				w.Send(1, tag, s.Bytes) // eager: completes immediately
			} else if r == 1 {
				w.Recv(0, tag)
			}
		case pattern.LateReceiver:
			if r == 0 {
				w.Send(1, tag, s.Bytes) // rendezvous: blocks until posted
			} else if r == 1 {
				m.Elapse(d)
				w.Recv(0, tag)
			}
		case pattern.WaitBarrier:
			m.Elapse(d)
			w.Barrier()
		case pattern.WaitNxN:
			m.Elapse(d)
			w.Allreduce(8)
		case pattern.EarlyReduce:
			m.Elapse(d)
			w.Reduce(0, 8)
		case pattern.LateBroadcast:
			m.Elapse(d)
			w.Bcast(0, 1024)
		}
	})
}

// MasterScale returns the factor converting planted true-time delays
// into corrected severities: corrected time is the global master's
// (rank 0's) clock, which runs at 1+drift relative to true time.
func MasterScale(e *metascope.Experiment) float64 {
	return 1 + e.Clocks().ForLoc(e.Place.Loc(0)).Drift
}

// Tolerance bounds an acceptable severity deviation as abs + rel·|want|.
type Tolerance struct {
	Abs float64
	Rel float64
}

// For returns the allowed deviation around want.
func (t Tolerance) For(want float64) float64 { return t.Abs + t.Rel*math.Abs(want) }

// ExactTol is the tolerance for schemes whose corrections are exact on
// the deterministic testbed (FlatInterp and Hierarchical): both
// measurement points of every interpolation are error-free, two exact
// points determine the affine master∘slave⁻¹ map exactly, so only
// floating-point rounding remains.
var ExactTol = Tolerance{Abs: 1e-9, Rel: 1e-6}

// FlatSingleTol bounds FlatSingle's uncompensated drift: a single
// offset measurement leaves each timestamp with an error up to
// |slave drift − master drift| · (t − t_measured), and a severity
// subtracts two such timestamps from different ranks. horizon is the
// largest event distance from the start measurement (Align plus the
// largest planted delay, with slack for initialization and transfers);
// the clock spec's MaxDrift bounds every drift magnitude.
func FlatSingleTol(e *metascope.Experiment, horizon float64) Tolerance {
	maxDrift := 0.0
	for _, mh := range e.Topo.Metahosts {
		if mh.Clock.MaxDrift > maxDrift {
			maxDrift = mh.Clock.MaxDrift
		}
	}
	return Tolerance{Abs: 4 * maxDrift * horizon, Rel: 1e-6}
}

// Horizon returns a safe FlatSingleTol horizon for the scenario: the
// alignment point plus the largest delay plus a second of slack.
func (s Scenario) Horizon() float64 {
	max := 0.0
	for _, d := range s.Delays {
		if d > max {
			max = d
		}
	}
	return s.Align + max + 1.0
}

// Mismatch is one failed oracle assertion.
type Mismatch struct {
	Rank           int
	Key            string
	Got, Want, Tol float64
}

func (m Mismatch) String() string {
	return fmt.Sprintf("rank %d %s: got %.9g, want %.9g (±%.3g)", m.Rank, m.Key, m.Got, m.Want, m.Tol)
}

// CheckOracle compares a report against the scenario's closed-form
// expectations, returning every deviation (empty means conformant):
//
//   - the planted base family totals Expected[rank]·scale per rank;
//   - the grid child carries the full value for grid scenarios and
//     exactly zero for intra scenarios;
//   - the wrong-order specialization of Late Sender stays zero (the
//     scenarios send in order);
//   - collective completion metrics stay within
//     scenario.CompletionPerCall when the scenario runs its one
//     collective, zero otherwise;
//   - every other wait-state family stays zero.
func CheckOracle(rep *cube.Report, s Scenario, scale float64, tol Tolerance) []Mismatch {
	want := s.Expected()
	keys := map[string]map[int]float64{s.Base.MetricKey(): want}
	if s.Grid {
		// The grid child carries the full planted value; the base
		// family total is subtree-inclusive, so both match want.
		keys[s.Base.Gridded().MetricKey()] = want
	}
	bounds := map[string]float64{}
	switch s.Base {
	case pattern.WaitBarrier:
		bounds[pattern.KeyBarrierComp] = scenario.CompletionPerCall
	case pattern.WaitNxN:
		bounds[pattern.KeyNxNComp] = scenario.CompletionPerCall
	}
	return CheckKeys(rep, s.N(), keys, bounds, scale, tol)
}

// RunResult bundles one executed scenario with its analyses.
type RunResult struct {
	Scenario Scenario
	Exp      *metascope.Experiment
	Scale    float64
	Results  map[vclock.Scheme]*replay.Result
}

// RunScenario builds the scenario's experiment, measures it through the
// normal trace path, and analyzes the archive under every requested
// synchronization scheme.
func RunScenario(s Scenario, seed int64, schemes ...vclock.Scheme) (*RunResult, error) {
	e, err := s.NewExperiment(seed)
	if err != nil {
		return nil, fmt.Errorf("conformance %s: %w", s.Name, err)
	}
	if err := e.Run(s.Body); err != nil {
		return nil, fmt.Errorf("conformance %s: measuring: %w", s.Name, err)
	}
	rr := &RunResult{Scenario: s, Exp: e, Scale: MasterScale(e), Results: make(map[vclock.Scheme]*replay.Result, len(schemes))}
	for _, sch := range schemes {
		res, err := e.Analyze(sch)
		if err != nil {
			return nil, fmt.Errorf("conformance %s: analyzing (%v): %w", s.Name, sch, err)
		}
		rr.Results[sch] = res
	}
	return rr, nil
}
