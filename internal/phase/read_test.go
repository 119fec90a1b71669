package phase

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// Read's allocation bound: what it allocates on an input is at most
// readBytesPerInputByte per input byte (the decoder's buffer, the
// strings, the phases and their rows with their growth) plus
// readFixedBytes (the decoder's own state).
const (
	readBytesPerInputByte = 32
	readFixedBytes        = 64 << 10
)

// readAllocated returns the bytes allocated while reading input.
func readAllocated(input []byte) (uint64, *Profile, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Read(bytes.NewReader(input))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, p, err
}

// FuzzPhaseRead: Read never panics, allocates within
// readBytesPerInputByte·len(input) + readFixedBytes, and an artifact it
// accepts writes and reads back to the same bytes. The seeds are the
// phase artifact of the halo1d library scenario at seed 1 analysed under
// hier (testdata/halo1d.phases.json, the run internal/cube's halo1d.cube
// comes from) and a drawn artifact.
func FuzzPhaseRead(f *testing.F) {
	halo, err := os.ReadFile("testdata/halo1d.phases.json")
	if err != nil {
		f.Fatal(err)
	}
	var drawn bytes.Buffer
	if err := drawArtifact(rand.New(rand.NewSource(9))).WriteJSON(&drawn); err != nil {
		f.Fatal(err)
	}
	f.Add(halo)
	f.Add(drawn.Bytes())
	f.Fuzz(func(t *testing.T, input []byte) {
		got, p, err := readAllocated(input)
		if bound := uint64(readBytesPerInputByte*len(input) + readFixedBytes); got > bound {
			t.Errorf("%d input bytes allocated %d, over the bound %d", len(input), got, bound)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := p.WriteJSON(&out); err != nil {
			t.Fatalf("an artifact Read accepted does not write: %v", err)
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("an artifact Read accepted does not read back: %v", err)
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("WriteJSON(Read(WriteJSON(p))) differs from WriteJSON(p)")
		}
	})
}
