package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"metascope/internal/profile"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// ExportTimeline writes a synchronized global timeline of the
// experiment in Chrome's trace_event JSON format (viewable in
// chrome://tracing or Perfetto) — the zoomable-timeline view that
// graphical browsers like VAMPIR provide (§2/§3 discuss VAMPIR's
// grid-extended timelines as the manual alternative to automatic
// pattern search).
//
// Rows are grouped by metahost (pid) and process (tid); region
// enter/exit become duration events, and every point-to-point message
// becomes a flow arrow from its send to its receive. Time stamps are
// corrected with the given synchronization scheme, so exporting the
// same archive under FlatSingle and Hierarchical makes the clock-
// condition violations visible as backwards arrows in one view and
// not the other.
func ExportTimeline(w io.Writer, traces []*trace.Trace, scheme vclock.Scheme) error {
	return ExportTimelineProfile(w, traces, scheme, nil)
}

// ExportTimelineProfile is ExportTimeline with the time-resolved
// severity profile merged in as counter tracks: one "ph":"C" track per
// (metric, metahost), sampled at every bucket edge, so Perfetto draws
// the wait-state intensity as a stacked area right above the event
// rows it explains. A nil or empty profile degrades to the plain
// timeline.
func ExportTimelineProfile(w io.Writer, traces []*trace.Trace, scheme vclock.Scheme, prof *profile.Profile) error {
	corr, err := BuildCorrections(traces, scheme)
	if err != nil {
		return err
	}
	maps := make([]vclock.LinearMap, len(traces))
	for _, c := range corr {
		maps[c.Rank] = c.Map
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v interface{}) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	type ev = map[string]interface{}
	// Process-name metadata rows.
	for _, t := range traces {
		if err := emit(ev{
			"ph": "M", "name": "process_name", "pid": t.Loc.Metahost, "tid": t.Loc.Rank,
			"args": ev{"name": fmt.Sprintf("%s rank %d", t.Loc.MetahostName, t.Loc.Rank)},
		}); err != nil {
			return err
		}
	}

	us := func(rank int, ts float64) float64 { return maps[rank].Apply(ts) * 1e6 }
	for rank, t := range traces {
		names := make(map[trace.RegionID]string, len(t.Regions))
		for _, r := range t.Regions {
			names[r.ID] = r.Name
		}
		seq := make(map[[3]int32]int) // per-signature message counter
		pid, tid := t.Loc.Metahost, t.Loc.Rank
		for i := range t.Events {
			e := &t.Events[i]
			ts := us(rank, e.Time)
			switch e.Kind {
			case trace.KindEnter:
				if err := emit(ev{"ph": "B", "name": names[e.Region], "pid": pid, "tid": tid, "ts": ts}); err != nil {
					return err
				}
			case trace.KindExit:
				if err := emit(ev{"ph": "E", "pid": pid, "tid": tid, "ts": ts}); err != nil {
					return err
				}
			case trace.KindSend, trace.KindRecv:
				// Flow id shared by the matching send/recv: the n-th
				// message with one (comm, peer→self, tag) signature.
				// For the send the signature is (comm, self, tag)
				// viewed from the receiver, so both sides canonicalize
				// to (comm, src-world-rank, tag, n).
				def := t.CommByID(e.Comm)
				if def == nil || int(e.Peer) >= len(def.Ranks) {
					continue
				}
				srcWorld, dstWorld := def.Ranks[e.Peer], int32(rank)
				if e.Kind == trace.KindSend {
					srcWorld, dstWorld = dstWorld, srcWorld
				}
				sig := [3]int32{e.Comm, srcWorld<<16 | dstWorld, e.Tag}
				n := seq[sig]
				seq[sig] = n + 1
				id := fmt.Sprintf("m%d.%d.%d.%d.%d", e.Comm, srcWorld, dstWorld, e.Tag, n)
				flow := ev{"ph": "s", "name": "msg", "cat": "msg", "id": id, "pid": pid, "tid": tid, "ts": ts}
				if e.Kind == trace.KindRecv {
					flow["ph"], flow["bp"] = "f", "e"
				}
				if err := emit(flow); err != nil {
					return err
				}
			case trace.KindCollExit:
				if err := emit(ev{
					"ph": "i", "name": e.Coll.String(), "s": "t",
					"pid": pid, "tid": tid, "ts": ts,
				}); err != nil {
					return err
				}
			}
		}
	}
	// Counter tracks: per metric and metahost, the bucket values of the
	// time-resolved profile sampled at each bucket's left edge, plus a
	// closing zero sample at the right edge so the last bucket renders
	// with its true extent.
	if !prof.Empty() {
		for _, metric := range prof.Metrics() {
			name, unit := metric, ""
			for _, s := range prof.Series {
				if s.Metric == metric {
					if s.Name != "" {
						name = s.Name
					}
					unit = s.Unit
					break
				}
			}
			if unit != "" {
				name = fmt.Sprintf("%s (%s)", name, unit)
			}
			for _, row := range prof.ByMetahost(metric) {
				for i, v := range row.Values {
					ts := (prof.Origin + float64(i)*prof.BucketWidth) * 1e6
					if err := emit(ev{
						"ph": "C", "name": name, "pid": row.Metahost, "ts": ts,
						"args": ev{"value": v},
					}); err != nil {
						return err
					}
				}
				end := (prof.Origin + float64(len(row.Values))*prof.BucketWidth) * 1e6
				if err := emit(ev{
					"ph": "C", "name": name, "pid": row.Metahost, "ts": end,
					"args": ev{"value": 0.0},
				}); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
