package replay

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"metascope/internal/trace"
	"metascope/internal/vclock"
)

func timelineTraces() []*trace.Trace {
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(1, 1), send(1, 1, 7, 100), exit(1.5, 1),
		enter(2, 3), collExit(2.5, trace.CollBarrier, -1), exit(2.5, 3),
		exit(10, 0),
	})
	t1 := synth(1, 1, []trace.Event{
		enter(0, 0),
		enter(0.5, 2), recv(1.6, 0, 7, 100), exit(1.6, 2),
		enter(2, 3), collExit(2.5, trace.CollBarrier, -1), exit(2.5, 3),
		exit(10, 0),
	})
	return []*trace.Trace{t0, t1}
}

func TestExportTimelineValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportTimeline(&buf, timelineTraces(), vclock.FlatSingle, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var b, e, s, f, meta, inst int
	for _, ev := range events {
		switch ev["ph"] {
		case "B":
			b++
		case "E":
			e++
		case "s":
			s++
		case "f":
			f++
		case "M":
			meta++
		case "i":
			inst++
		}
	}
	if b != e {
		t.Errorf("unbalanced begin/end: %d vs %d", b, e)
	}
	if b != 6 { // 3 region instances per rank
		t.Errorf("begin events %d, want 6", b)
	}
	if s != 1 || f != 1 {
		t.Errorf("flow events %d/%d, want 1/1", s, f)
	}
	if meta != 2 {
		t.Errorf("metadata rows %d, want 2", meta)
	}
	if inst != 2 { // one barrier instant per rank
		t.Errorf("instant events %d, want 2", inst)
	}
}

func TestExportTimelineProfileCounterTracks(t *testing.T) {
	// Analyze the same traces the timeline exports, then merge the
	// resulting profile as counter tracks and round-trip the output
	// through the Chrome trace-event schema: every event must carry a
	// valid "ph", and every "C" event a pid, a finite ts, and a numeric
	// args value.
	traces := timelineTraces()
	res := analyze(t, traces)
	if res.Profile.Empty() {
		t.Fatal("analysis produced no profile series")
	}
	var buf bytes.Buffer
	if err := ExportTimeline(&buf, timelineTraces(), vclock.FlatSingle, res.Profile); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	counters := 0
	names := make(map[string]bool)
	for _, ev := range events {
		ph, ok := ev["ph"].(string)
		if !ok || !strings.ContainsAny(ph, "BEsfMiC") || len(ph) != 1 {
			t.Fatalf("bad ph in %v", ev)
		}
		if ph != "C" {
			continue
		}
		counters++
		names[ev["name"].(string)] = true
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("counter without pid: %v", ev)
		}
		ts, ok := ev["ts"].(float64)
		if !ok || math.IsNaN(ts) || math.IsInf(ts, 0) {
			t.Fatalf("counter with bad ts: %v", ev)
		}
		args, ok := ev["args"].(map[string]interface{})
		if !ok {
			t.Fatalf("counter without args: %v", ev)
		}
		if _, ok := args["value"].(float64); !ok {
			t.Fatalf("counter args not numeric: %v", ev)
		}
	}
	// Each (metric, metahost) row contributes buckets+1 samples.
	rows := 0
	for _, m := range res.Profile.Metrics() {
		rows += len(res.Profile.ByMetahost(m))
	}
	if want := rows * (res.Profile.Buckets + 1); counters != want {
		t.Errorf("counter events %d, want %d (%d rows × %d samples)", counters, want, rows, res.Profile.Buckets+1)
	}
	if len(names) != len(res.Profile.Metrics()) {
		t.Errorf("counter track names %v, want one per metric %v", names, res.Profile.Metrics())
	}
}

func TestExportTimelineFlowIDsMatch(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportTimeline(&buf, timelineTraces(), vclock.FlatSingle, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var sendID, recvID string
	for _, ev := range events {
		switch ev["ph"] {
		case "s":
			sendID = ev["id"].(string)
		case "f":
			recvID = ev["id"].(string)
		}
	}
	if sendID == "" || sendID != recvID {
		t.Fatalf("flow ids do not match: %q vs %q", sendID, recvID)
	}
	if !strings.HasPrefix(sendID, "m0.0.1.7.") {
		t.Errorf("flow id %q does not encode comm/src/dst/tag", sendID)
	}
}

func TestExportTimelineUsesCorrectedTimes(t *testing.T) {
	traces := timelineTraces()
	// Give rank 1 a +100 offset measurement: its events shift by -100
	// relative to its raw time stamps... i.e. raw times +100 map back.
	traces[1].Sync = trace.SyncData{
		FlatStart: vclock.Measurement{Local: 0, Offset: -100},
		FlatEnd:   vclock.Measurement{Local: 10, Offset: -100},
	}
	var buf bytes.Buffer
	if err := ExportTimeline(&buf, traces, vclock.FlatSingle, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev["ph"] == "B" && ev["tid"] == float64(1) {
			if ts := ev["ts"].(float64); ts > 0 {
				t.Fatalf("rank 1 events not corrected: first enter at %g us", ts)
			}
			return
		}
	}
	t.Fatalf("rank 1 events missing")
}
