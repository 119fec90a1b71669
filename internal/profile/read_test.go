package profile

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// Read's allocation bound: what it allocates on an input is at most
// readBytesPerInputByte per input byte (the decoder's buffer, the
// strings, the series and their value rows with their growth) plus
// readFixedBytes (the decoder's own state). A declared bucket count
// sizes nothing.
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

// FuzzProfileRead: Read never panics, allocates within
// readBytesPerInputByte·len(input) + readFixedBytes, and an artifact it
// accepts writes and reads back to the same bytes. The seeds are the
// profile of the halo1d library scenario at seed 1 analysed under hier
// (testdata/halo1d.profile.json, the run internal/cube's halo1d.cube
// comes from), a drawn artifact, and one that declares MaxBuckets
// buckets for a series of one value.
func FuzzProfileRead(f *testing.F) {
	halo, err := os.ReadFile("testdata/halo1d.profile.json")
	if err != nil {
		f.Fatal(err)
	}
	var drawn bytes.Buffer
	if err := drawProfile(rand.New(rand.NewSource(9))).WriteJSON(&drawn); err != nil {
		f.Fatal(err)
	}
	f.Add(halo)
	f.Add(drawn.Bytes())
	f.Add([]byte(`{"title":"t","origin":0,"bucket_width":1,"buckets":65536,"series":[{"metric":"m","metahost":0,"rank":0,"count":1,"values":[1]}]}`))
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
