//go:build !race

package measure

import (
	"runtime"
	"testing"
	"unsafe"

	"metascope/internal/archive"
	"metascope/internal/trace"
)

// TestRecordingAllocatesEncodedBytes: a rank writes its trace as it
// records it, so recording n events allocates about the encoded image,
// one block of events and a constant, not 40 bytes per event held until
// the trace is written. K covers the block buffer growing by doubling
// up to one block (under one block more), the pages' size-class
// rounding, the column staging buffers, the page list and the one
// message. Recording allocates 0.52 MB here; a rank that held every
// event as a trace.Event until it wrote the file allocated 4.1 MB. The
// race detector instruments allocation, so the test is built without
// it; script/check.sh runs it by name.
func TestRecordingAllocatesEncodedBytes(t *testing.T) {
	const (
		n          = 5*4096 + 1
		blockBytes = 4096 * int(unsafe.Sizeof(trace.Event{}))
		K          = blockBytes + 128<<10
	)
	r := newRig(t, 1, false)
	var allocated uint64
	_, err := Run(r.world, r.config(), func(m *M) {
		switch m.Rank() {
		case 0:
		case 1:
			m.World().Recv(0, 1)
			return
		default:
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Enter("main")
		for range (n - 5) / 2 {
			m.Elapse(1e-6)
			m.Enter("step")
			m.Elapse(1e-6)
			m.Exit()
		}
		m.World().Send(1, 1, 8) // enter, send, exit: n events in all
		m.Exit()
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := archive.ReadFile(r.mounts.For(0), archive.TraceFile("epik_test", 0))
	if err != nil {
		t.Fatal(err)
	}
	r0, err := trace.NewBlockReader(img, nil)
	if err != nil || r0.Total() != n {
		t.Fatalf("rank 0 wrote %v events (%v), want %d", r0.Total(), err, n)
	}
	if budget := uint64(len(img) + blockBytes + K); allocated > budget {
		t.Fatalf("recording %d events allocated %d bytes, over the %d-byte image + %d-byte block + K = %d",
			n, allocated, len(img), blockBytes, budget)
	}
	t.Logf("recording %d events allocated %d bytes; image %d bytes", n, allocated, len(img))
}
