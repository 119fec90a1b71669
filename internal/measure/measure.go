// Package measure is the measurement runtime of metascope — the EPIK
// analogue. It instruments a simulated MPI application, records
// time-stamped events using the (unsynchronized, drifting) virtual node
// clocks, performs the offset measurements needed for post-mortem time
// synchronization at program start and end, runs the hierarchical
// archive-creation protocol, and writes one local trace file per
// process into the per-metahost archives.
//
// Metahost identification (§4): the runtime reads a per-metahost
// "environment" that assigns each metahost a unique numeric identifier
// and a human-readable name. By default the environment mirrors the
// topology description; experiments can override or omit entries to
// exercise the misconfiguration path.
package measure

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"metascope/internal/archive"
	"metascope/internal/mmpi"
	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// MetahostEnv is the per-metahost runtime configuration the user must
// provide (the two environment variables of §4).
type MetahostEnv struct {
	ID   int
	Name string
}

// Config controls a measured run.
type Config struct {
	// ArchiveDir is the experiment archive directory name, e.g.
	// "epik_metatrace_32".
	ArchiveDir string
	// Mounts maps metahosts to their file systems.
	Mounts *archive.Mounts
	// Clocks supplies every node's virtual clock.
	Clocks *vclock.Set
	// Env is the metahost identification table. Leave nil to derive it
	// from the topology (id and name of every metahost).
	Env map[int]MetahostEnv
	// PingPongs is the number of message exchanges per offset
	// measurement (Cristian's remote clock reading keeps the one with
	// the smallest round trip). Zero selects the default of 20.
	PingPongs int
	// DisableTracing turns event recording off (measurement
	// infrastructure only), used by microbenchmarks.
	DisableTracing bool
	// FilterRegions suppresses Enter/Exit events for the named user
	// regions — EPIK-style selective instrumentation to keep traces of
	// frequently called small functions manageable. Filtered regions
	// still execute and their time is attributed to the enclosing
	// region; MPI events are never filtered.
	FilterRegions []string
	// Obs selects the observability recorder the runtime reports phase
	// timings and counters into; nil selects obs.Default.
	Obs *obs.Recorder
	// TraceFormat selects the on-disk trace encoding. The zero value
	// (trace.FormatDefault) selects the current default, the columnar
	// v2; trace.FormatV1 writes the legacy row encoding. Readers
	// autodetect either.
	TraceFormat trace.Format
}

func (c *Config) filtered(name string) bool {
	for _, f := range c.FilterRegions {
		if f == name {
			return true
		}
	}
	return false
}

func (c *Config) pingPongs() int {
	if c.PingPongs <= 0 {
		return 20
	}
	return c.PingPongs
}

// Reserved tags for untraced runtime-internal protocols.
const (
	tagGo     = 9_000_001
	tagPP     = 9_000_002
	tagCtl    = 9_000_003
	tagMaster = 9_000_004
	tagNode   = 9_000_005
)

// Runtime is the shared, job-wide measurement state.
type Runtime struct {
	cfg   Config
	world *mmpi.World
	reg   *registry
	ms    []*M
	err   error

	obs     *obs.Recorder
	phaseMu sync.Mutex
	phases  map[string]*phaseWindow
	order   []string
}

// phaseWindow tracks the wall-clock window a runtime-internal phase
// (archive protocol, offset measurement, trace writing) occupies. The
// simulated ranks interleave on one OS thread, so per-rank wall time
// would be meaningless; the window from the first rank entering the
// phase to the last rank leaving it is the cost the phase adds to the
// whole run.
type phaseWindow struct {
	first time.Time
	last  time.Time
}

// phaseEnter opens (or extends) the named phase window.
func (rt *Runtime) phaseEnter(name string) {
	rt.phaseMu.Lock()
	defer rt.phaseMu.Unlock()
	if _, ok := rt.phases[name]; !ok {
		rt.phases[name] = &phaseWindow{first: time.Now()}
		rt.order = append(rt.order, name)
	}
}

// phaseExit stamps the latest observed end of the named phase.
func (rt *Runtime) phaseExit(name string) {
	rt.phaseMu.Lock()
	defer rt.phaseMu.Unlock()
	if w, ok := rt.phases[name]; ok {
		w.last = time.Now()
	}
}

// recordPhases folds the phase windows into the recorder's phase
// breakdown under the "measure" parent, in first-entered order.
func (rt *Runtime) recordPhases() {
	rt.phaseMu.Lock()
	defer rt.phaseMu.Unlock()
	for _, name := range rt.order {
		w := rt.phases[name]
		if w.last.IsZero() {
			continue
		}
		rt.obs.Phases.Record(w.last.Sub(w.first), "measure", name)
	}
}

// registry assigns stable region ids across all processes. The
// simulation executes process code single-threaded, so no locking is
// needed.
type registry struct {
	byName map[string]trace.RegionID
	list   []trace.Region
}

func (r *registry) lookup(name string, kind trace.RegionKind) trace.RegionID {
	if id, ok := r.byName[name]; ok {
		return id
	}
	id := trace.RegionID(len(r.list))
	r.byName[name] = id
	r.list = append(r.list, trace.Region{ID: id, Name: name, Kind: kind})
	return id
}

func (r *registry) snapshot() []trace.Region {
	out := make([]trace.Region, len(r.list))
	copy(out, r.list)
	return out
}

// Run executes body under measurement on every rank of the world and
// returns once the simulation completes and all trace files are
// written. The returned error is the first of: simulation error,
// metahost identification failure, or archive protocol abort.
func Run(w *mmpi.World, cfg Config, body func(m *M)) (*Runtime, error) {
	if cfg.Mounts == nil {
		return nil, fmt.Errorf("measure: config needs archive mounts")
	}
	if cfg.Clocks == nil {
		return nil, fmt.Errorf("measure: config needs virtual clocks")
	}
	if cfg.ArchiveDir == "" {
		cfg.ArchiveDir = "epik_metascope"
	}
	rt := &Runtime{
		cfg:    cfg,
		world:  w,
		reg:    &registry{byName: make(map[string]trace.RegionID)},
		ms:     make([]*M, w.N()),
		obs:    obs.OrDefault(cfg.Obs),
		phases: make(map[string]*phaseWindow),
	}
	err := w.Run(func(p *mmpi.Proc) {
		m := newM(rt, p)
		rt.ms[p.Rank()] = m
		if err := m.initialize(); err != nil {
			rt.fail(err)
			return
		}
		body(m)
		if err := m.finalize(); err != nil {
			rt.fail(err)
		}
	})
	rt.recordPhases()
	if rt.err != nil {
		return rt, rt.err
	}
	return rt, err
}

func (rt *Runtime) fail(err error) {
	if rt.err == nil {
		rt.err = err
	}
	rt.world.Engine().Fail(err)
}

// ArchiveDir returns the experiment archive directory.
func (rt *Runtime) ArchiveDir() string { return rt.cfg.ArchiveDir }

// Mounts returns the mount table used by the run.
func (rt *Runtime) Mounts() *archive.Mounts { return rt.cfg.Mounts }

// M is one process's measurement context: the instrumented face of the
// MPI process handed to application code.
type M struct {
	rt    *Runtime
	p     *mmpi.Proc
	clock *vclock.Clock
	fs    archive.FS

	metahostID   int
	metahostName string
	localMaster  int // rank of this metahost's elected local master

	trace    *trace.Writer // the local trace file, written as it is recorded
	stack    []stackItem
	sync     trace.SyncData
	commDefs map[int][]int32

	world *Comm
}

// stackItem tracks one open region; filtered regions stay on the stack
// (so Exit pairs correctly) without producing events.
type stackItem struct {
	id       trace.RegionID
	filtered bool
}

func sortCommDefs(defs []trace.CommDef) {
	sort.Slice(defs, func(i, j int) bool { return defs[i].ID < defs[j].ID })
}

// noteComm records a communicator definition for the trace file.
func (m *M) noteComm(c *mmpi.Comm) {
	if _, ok := m.commDefs[c.ID()]; ok {
		return
	}
	ranks := c.Ranks()
	def := make([]int32, len(ranks))
	for i, r := range ranks {
		def[i] = int32(r)
	}
	m.commDefs[c.ID()] = def
}

func newM(rt *Runtime, p *mmpi.Proc) *M {
	return &M{
		rt:       rt,
		p:        p,
		clock:    rt.cfg.Clocks.ForLoc(p.Loc()),
		trace:    trace.NewWriter(rt.cfg.TraceFormat),
		commDefs: make(map[int][]int32),
	}
}

// Rank returns the process's world rank.
func (m *M) Rank() int { return m.p.Rank() }

// Proc returns the underlying simulated MPI process.
func (m *M) Proc() *mmpi.Proc { return m.p }

// World returns the instrumented world communicator.
func (m *M) World() *Comm { return m.world }

// Comm wraps a predefined communicator (see mmpi.World.PredefComm) in
// the instrumented API. It returns nil if the process is not a member.
func (m *M) Comm(id int) *Comm {
	c := m.p.Predef(id)
	if c == nil {
		return nil
	}
	m.noteComm(c)
	return &Comm{m: m, c: c}
}

// MetahostID returns the numeric metahost identifier from the runtime
// environment.
func (m *M) MetahostID() int { return m.metahostID }

// MetahostName returns the human-readable metahost name.
func (m *M) MetahostName() string { return m.metahostName }

// IsLocalMaster reports whether this process is its metahost's elected
// local master (lowest rank on the metahost).
func (m *M) IsLocalMaster() bool { return m.p.Rank() == m.localMaster }

// now returns the local-clock reading for the current instant.
func (m *M) now() float64 { return m.clock.Read(m.p.Now()) }

// Compute advances the process by work/speed seconds (no event).
func (m *M) Compute(kernel string, work float64) { m.p.Compute(kernel, work) }

// Elapse advances the process by a wall-clock duration (no event).
func (m *M) Elapse(seconds float64) { m.p.Elapse(seconds) }

// record writes an event to the trace unless tracing is disabled.
func (m *M) record(ev trace.Event) {
	if m.rt.cfg.DisableTracing {
		return
	}
	m.trace.Append(ev)
}

// Enter records entry into a user code region (unless filtered).
func (m *M) Enter(name string) {
	if m.rt.cfg.filtered(name) {
		m.stack = append(m.stack, stackItem{filtered: true})
		return
	}
	id := m.rt.reg.lookup(name, trace.RegionUser)
	m.stack = append(m.stack, stackItem{id: id})
	m.record(trace.Event{Kind: trace.KindEnter, Time: m.now(), Region: id})
}

// Exit records leaving the current region. Calling Exit with an empty
// region stack is an instrumentation bug and panics.
func (m *M) Exit() {
	if len(m.stack) == 0 {
		panic(fmt.Sprintf("measure: rank %d Exit without matching Enter", m.p.Rank()))
	}
	top := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	if top.filtered {
		return
	}
	m.record(trace.Event{Kind: trace.KindExit, Time: m.now(), Region: top.id})
}

// InRegion runs fn inside an Enter/Exit pair.
func (m *M) InRegion(name string, fn func()) {
	m.Enter(name)
	defer m.Exit()
	fn()
}

// enterMPI/exitMPI bracket instrumented MPI calls (never filtered).
func (m *M) enterMPI(name string, kind trace.RegionKind) {
	id := m.rt.reg.lookup(name, kind)
	m.stack = append(m.stack, stackItem{id: id})
	m.record(trace.Event{Kind: trace.KindEnter, Time: m.now(), Region: id})
}

// initialize identifies the metahost, elects masters, runs the archive
// protocol, and takes the program-start offset measurements. All of
// this happens before tracing proper, so none of it pollutes the trace.
func (m *M) initialize() error {
	env := m.rt.cfg.Env
	mh := m.p.Loc().Metahost
	if env == nil {
		t := m.p.Metahost()
		m.metahostID, m.metahostName = t.ID, t.Name
	} else {
		e, ok := env[mh]
		if !ok {
			return fmt.Errorf("measure: rank %d: metahost %d has no identification environment (EPK_METAHOST_ID/NAME unset)",
				m.p.Rank(), mh)
		}
		m.metahostID, m.metahostName = e.ID, e.Name
	}
	m.fs = m.rt.cfg.Mounts.For(mh)

	// Local master: lowest rank on this metahost.
	ranks := m.p.World().Ranks()
	place := m.rt.world.Placement()
	m.localMaster = -1
	for _, r := range ranks {
		if place.Loc(r).Metahost == mh {
			m.localMaster = r
			break
		}
	}
	m.world = &Comm{m: m, c: m.p.World()}
	m.noteComm(m.p.World())

	// Archive protocol.
	m.rt.phaseEnter("archive-protocol")
	err := archive.EnsureObs(&protocolComm{m: m}, m.fs, m.IsLocalMaster(), m.rt.cfg.ArchiveDir, m.rt.obs)
	m.rt.phaseExit("archive-protocol")
	if err != nil {
		return fmt.Errorf("measure: rank %d: %w", m.p.Rank(), err)
	}

	// Offset measurements at program start (§3/§4). Both the flat and
	// the hierarchical variants are measured in the same run so that a
	// single experiment can be re-analyzed under every synchronization
	// scheme — the comparison of Table 2.
	m.rt.phaseEnter("sync")
	m.measurePhase(true)
	m.rt.phaseExit("sync")
	return nil
}

// finalize repeats the offset measurements at program end, distributes
// local-master measurements to slaves, and writes the trace file.
func (m *M) finalize() error {
	if len(m.stack) != 0 {
		return fmt.Errorf("measure: rank %d finished with %d unclosed region(s)", m.p.Rank(), len(m.stack))
	}
	// Quiesce before the end measurement so ping-pongs do not contend
	// with application traffic.
	m.p.World().Barrier()
	m.rt.phaseEnter("sync")
	m.measurePhase(false)
	m.shareNodeMeasurements()
	m.shareMasterMeasurements()
	m.rt.phaseExit("sync")

	comms := make([]trace.CommDef, 0, len(m.commDefs))
	for id, ranks := range m.commDefs {
		comms = append(comms, trace.CommDef{ID: int32(id), Ranks: ranks})
	}
	sortCommDefs(comms)

	loc := m.p.Loc()
	t := &trace.Trace{
		Loc: trace.Location{
			Rank:         m.p.Rank(),
			Metahost:     m.metahostID,
			MetahostName: m.metahostName,
			Node:         loc.Node,
			CPU:          loc.CPU,
		},
		Sync:    m.sync,
		Regions: m.rt.reg.snapshot(),
		Comms:   comms,
	}
	m.rt.phaseEnter("trace-write")
	defer m.rt.phaseExit("trace-write")
	f, err := m.fs.Create(archive.TraceFile(m.rt.cfg.ArchiveDir, m.p.Rank()))
	if err != nil {
		return fmt.Errorf("measure: rank %d: creating trace file: %w", m.p.Rank(), err)
	}
	size, err := m.trace.Finish(f, t)
	if err != nil {
		return fmt.Errorf("measure: rank %d: encoding trace: %w", m.p.Rank(), err)
	}
	reg := m.rt.obs.Reg
	reg.Counter("metascope_measure_events_total", "trace events recorded").Add(float64(m.trace.Len()))
	reg.Counter("metascope_measure_traces_written_total", "local trace files written").Inc()
	reg.Counter("metascope_measure_trace_bytes_total", "encoded trace bytes written").Add(float64(size))
	reg.Histogram("metascope_measure_trace_bytes", "encoded size of one local trace file",
		obs.BytesBuckets).Observe(float64(size))
	return f.Close()
}
