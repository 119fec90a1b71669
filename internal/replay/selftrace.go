package replay

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"metascope/internal/archive"
	"metascope/internal/obs/flight"
	"metascope/internal/trace"
)

// This file is the flight recorder's dogfood exporter: it renders a
// flight recording of metascope's *own* replay pipeline as a metascope
// trace archive, so metascope analyze can analyze an analysis. The
// mapping follows the obvious isomorphism — the replay's ranks are ranks, a
// mailbox put is a send, a mailbox take the rank parked in is a receive
// that waited for it — which means the analyzer's Late Sender pattern,
// applied to a flight archive, measures exactly how long the replay's
// receivers sat blocked on slower senders.

// flightNames caches the replay layer's interned flight event names;
// interning takes the recorder lock, so it happens once per analysis
// in newAnalyzer, never on the hot path.
type flightNames struct {
	worker, take, put, gather, postpass flight.NameID
}

func newFlightNames(fl *flight.Recorder) flightNames {
	return flightNames{
		worker:   fl.Name("replay-worker"),
		take:     fl.Name("mailbox-take"),
		put:      fl.Name("mailbox-put"),
		gather:   fl.Name("collective-gather"),
		postpass: fl.Name("pattern-post-pass"),
	}
}

// flightSig folds a replayed message's matching signature (comm, tag)
// into one int64 that fits a trace tag. The same fold is applied at
// the put and at the take, so matched pairs stay matched; distinct
// signatures may collide, which merely merges their FIFO classes in
// the self-analysis — acceptable for a diagnostic view.
func flightSig(comm, tag int32) int64 {
	return int64(uint32(comm)<<16^uint32(tag)) & 0x7fffffff
}

// errNoFlightWorkers reports a recording without replay-worker events:
// the command replayed nothing.
var errNoFlightWorkers = errors.New("replay: flight recording holds no replay-worker events")

// flightRootRegion is the synthetic region enclosing each rank's whole
// recorded window (flight rings may have dropped the true span edges).
const flightRootRegion = "flight-rank"

// msgClass keys the send/receive balance of one sender–receiver–
// signature class.
type msgClass struct {
	src, dst int32
	sig      int64
}

// BuildFlightTraces converts a flight snapshot into one local trace
// per replay worker (events with Actor >= 0; service and process
// actors have no rank semantics). Actors are renumbered densely, times
// become seconds since the recorder epoch, and clocks are declared
// synchronized (identity corrections) — the recording already used one
// monotonic clock.
//
// The event mapping:
//
//	BlockBegin        -> Enter(mailbox-take)
//	BlockEnd          -> Recv + Exit  (the wait's span is the take call)
//	Send              -> Enter(mailbox-put) + Send + Exit, zero-width
//	GatherBegin/End   -> Enter/Exit of collective-gather (no CollExit:
//	                     per-comm gather sequences from a *windowed*
//	                     recording need not agree across ranks, and a
//	                     mismatched collective would deadlock the
//	                     self-replay; the gather wait still shows up as
//	                     Collective time)
//	SpanBegin/SpanEnd -> folded into the synthetic flight-rank root
//
// Because rings overwrite their oldest events independently per actor,
// the put and take sides of a class can survive in unequal numbers;
// replaying an unbalanced trace set would block a taker forever. The
// builder therefore balance-prunes: per (src, dst, signature) class it
// keeps the first min(#puts, #takes) message events on each side and
// demotes the rest to plain region time.
func BuildFlightTraces(snap *flight.Snapshot, job int32) ([]*trace.Trace, error) {
	// Collect the rank actors and their events (snapshot order is
	// time-sorted, which each per-actor sequence inherits).
	byActor := make(map[int32][]flight.Event)
	for _, e := range snap.Events {
		if e.Actor >= 0 && e.Job == job {
			byActor[e.Actor] = append(byActor[e.Actor], e)
		}
	}
	if len(byActor) == 0 {
		return nil, fmt.Errorf("%w for job %d", errNoFlightWorkers, job)
	}
	actors := make([]int32, 0, len(byActor))
	for a := range byActor {
		actors = append(actors, a)
	}
	sort.Slice(actors, func(i, j int) bool { return actors[i] < actors[j] })
	dense := make(map[int32]int32, len(actors))
	for i, a := range actors {
		dense[a] = int32(i)
	}

	// Region table: the synthetic root plus every interned name, ids
	// offset by one past the root so flight NameIDs map 1:1.
	regions := []trace.Region{{ID: 0, Name: flightRootRegion, Kind: trace.RegionUser}}
	kindOf := func(name string) trace.RegionKind {
		switch name {
		case "mailbox-take", "mailbox-put":
			return trace.RegionMPIP2P
		case "collective-gather":
			return trace.RegionMPIColl
		}
		return trace.RegionUser
	}
	for i, name := range snap.Names {
		regions = append(regions, trace.Region{
			ID: trace.RegionID(i + 1), Name: name, Kind: kindOf(name),
		})
	}

	// Balance pass: count surviving puts and takes per class. A take
	// whose sender actor recorded nothing at all is counted into a
	// class with zero puts and pruned below.
	sends := make(map[msgClass]int)
	recvs := make(map[msgClass]int)
	for _, a := range actors {
		depth := 0
		for _, e := range byActor[a] {
			switch e.Kind {
			case flight.Send:
				if d, ok := dense[int32(e.A)]; ok {
					sends[msgClass{src: dense[a], dst: d, sig: e.B}]++
				}
			case flight.BlockBegin, flight.GatherBegin:
				depth++
			case flight.BlockEnd:
				if depth > 0 {
					depth--
					if s, ok := dense[int32(e.A)]; ok {
						recvs[msgClass{src: s, dst: dense[a], sig: e.B}]++
					}
				}
			case flight.GatherEnd:
				if depth > 0 {
					depth--
				}
			}
		}
	}
	budget := make(map[msgClass]int, len(sends))
	for c, ns := range sends {
		if nr := recvs[c]; nr < ns {
			budget[c] = nr
		} else {
			budget[c] = ns
		}
	}

	comm := trace.CommDef{ID: 0, Ranks: make([]int32, len(actors))}
	for i := range comm.Ranks {
		comm.Ranks[i] = int32(i)
	}

	traces := make([]*trace.Trace, len(actors))
	sendLeft := make(map[msgClass]int, len(budget))
	recvLeft := make(map[msgClass]int, len(budget))
	for c, n := range budget {
		sendLeft[c] = n
		recvLeft[c] = n
	}
	for i, a := range actors {
		evs := byActor[a]
		sec := func(e flight.Event) float64 { return float64(e.When) / 1e9 }
		t := &trace.Trace{
			Loc: trace.Location{
				Rank: i, Metahost: 0, MetahostName: "metascope",
			},
			Sync:    trace.SyncData{SharedNodeClock: true},
			Regions: regions,
			Comms:   []trace.CommDef{comm},
		}
		out := make([]trace.Event, 0, 2*len(evs)+2)
		out = append(out, trace.Event{Kind: trace.KindEnter, Time: sec(evs[0]), Region: 0})
		depth := 0
		last := sec(evs[0])
		for _, e := range evs {
			ts := sec(e)
			if ts < last { // defensive: Validate requires monotone stamps
				ts = last
			}
			last = ts
			reg := trace.RegionID(e.Name)
			switch e.Kind {
			case flight.Send:
				d, ok := dense[int32(e.A)]
				if !ok {
					continue
				}
				c := msgClass{src: dense[a], dst: d, sig: e.B}
				out = append(out, trace.Event{Kind: trace.KindEnter, Time: ts, Region: reg})
				if sendLeft[c] > 0 {
					sendLeft[c]--
					out = append(out, trace.Event{
						Kind: trace.KindSend, Time: ts, Comm: 0,
						Peer: d, Tag: int32(e.B), Bytes: 64,
					})
				}
				out = append(out, trace.Event{Kind: trace.KindExit, Time: ts})
			case flight.BlockBegin, flight.GatherBegin:
				out = append(out, trace.Event{Kind: trace.KindEnter, Time: ts, Region: reg})
				depth++
			case flight.BlockEnd:
				if depth == 0 {
					continue // the matching begin fell off the ring
				}
				depth--
				if s, ok := dense[int32(e.A)]; ok {
					c := msgClass{src: s, dst: dense[a], sig: e.B}
					if recvLeft[c] > 0 {
						recvLeft[c]--
						out = append(out, trace.Event{
							Kind: trace.KindRecv, Time: ts, Comm: 0,
							Peer: s, Tag: int32(e.B), Bytes: 64,
						})
					}
				}
				out = append(out, trace.Event{Kind: trace.KindExit, Time: ts})
			case flight.GatherEnd:
				if depth == 0 {
					continue
				}
				depth--
				out = append(out, trace.Event{Kind: trace.KindExit, Time: ts})
			}
		}
		for ; depth > 0; depth-- { // ring cut off the tail: close what stayed open
			out = append(out, trace.Event{Kind: trace.KindExit, Time: last})
		}
		out = append(out, trace.Event{Kind: trace.KindExit, Time: last})
		t.Events = out
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("replay: flight trace for actor %d invalid: %w", a, err)
		}
		traces[i] = t
	}
	return traces, nil
}

// WriteFlightArchive exports a flight recording as an on-disk
// metascope experiment archive, laid out the way metascope run writes
// measurements: one metahost subdirectory ("metascope") holding an
// epik_flight experiment directory of per-rank trace files. The result
// mounts with archive.MountTree and analyzes with metascope analyze —
// the self-analysis loop. Only events outside job context (job -1, the
// CLI pipeline) are exported; a command that replayed nothing leaves
// the experiment directory empty. The metascope command assigns this
// function to obs.CLIConfig.FlightArchive for every verb.
func WriteFlightArchive(rec *flight.Recorder, dir string) error {
	traces, err := BuildFlightTraces(rec.Snapshot(), -1)
	if err != nil && !errors.Is(err, errNoFlightWorkers) {
		return err
	}
	fs, err := archive.NewDirFS(filepath.Join(dir, "metascope"))
	if err != nil {
		return err
	}
	const exp = "epik_flight"
	if err := fs.Mkdir(exp); err != nil && !errors.Is(err, archive.ErrExist) {
		return err
	}
	for _, t := range traces {
		f, err := fs.Create(archive.TraceFile(exp, t.Loc.Rank))
		if err != nil {
			return err
		}
		err = t.EncodeFormat(f, trace.FormatDefault)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("replay: writing flight trace %d: %w", t.Loc.Rank, err)
		}
	}
	return nil
}
