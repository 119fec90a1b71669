package cube

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// Read's allocation bound: what it allocates on an input is at most one
// row of 8-byte cells per sev line, plus readBytesPerInputByte per input
// byte (the line strings, field slices, metric, call and loc records and
// their growth, the row lists), plus readFixedBytes (the scanner's
// buffer and one block of rows).
const (
	readBytesPerInputByte = 64
	readFixedBytes        = 512 << 10
)

// readAllocated returns the bytes allocated while reading input.
func readAllocated(input []byte) (uint64, *Report, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Read(bytes.NewReader(input))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, r, err
}

// readBound is Read's allocation bound on input: its loc and sev lines
// are counted as Read sees them, trimmed.
func readBound(input []byte) uint64 {
	locs, sevs := 0, 0
	for _, line := range strings.Split(string(input), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "loc"):
			locs++
		case strings.HasPrefix(line, "sev"):
			sevs++
		}
	}
	return uint64(8*locs*sevs + readBytesPerInputByte*len(input) + readFixedBytes)
}

// declarationsOnly is a cube file of 300 metric, 300 call and 300 loc
// lines and a single sev line, at the far corner of the cube.
func declarationsOnly() []byte {
	var b bytes.Buffer
	b.WriteString("mscpcube 1\ntitle \"declarations\"\n")
	for i := range 300 {
		fmt.Fprintf(&b, "metric %d -1 sec k%d \"m\"\n", i, i)
	}
	for i := range 300 {
		fmt.Fprintf(&b, "call %d -1 \"c%d\"\n", i, i)
	}
	for i := range 300 {
		fmt.Fprintf(&b, "loc %d %d 0 0 \"MH\"\n", i, i)
	}
	b.WriteString("sev 299 299 299 1.5\nend\n")
	return b.Bytes()
}

// TestReadDoesNotAmplifyDeclarations: declaring metrics, call nodes and
// locations costs what their lines cost, not the metric × call ×
// location cube they span: a 19 496-byte file with one sev line reads in
// under 1 MB (the dense cube it declares is 216 MB).
func TestReadDoesNotAmplifyDeclarations(t *testing.T) {
	input := declarationsOnly()
	got, r, err := readAllocated(input)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Value(299, 299, 299); v != 1.5 {
		t.Fatalf("corner cell %g, want 1.5", v)
	}
	t.Logf("%d input bytes, %d allocated (%.1fx)", len(input), got, float64(got)/float64(len(input)))
	if got >= 1<<20 {
		t.Errorf("reading %d bytes allocated %d, want < 1 MB", len(input), got)
	}
	if bound := readBound(input); got > bound {
		t.Errorf("allocated %d, over the bound %d", got, bound)
	}
}

// FuzzCubeRead: Read never panics, and allocates within readBound. The
// seeds are a written tinyReport, the cube of the halo1d library
// scenario at seed 1, and declarationsOnly.
func FuzzCubeRead(f *testing.F) {
	var tiny bytes.Buffer
	if err := tinyReport().Write(&tiny); err != nil {
		f.Fatal(err)
	}
	halo, err := os.ReadFile("testdata/halo1d.cube")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tiny.Bytes())
	f.Add(halo)
	f.Add(declarationsOnly())
	f.Fuzz(func(t *testing.T, input []byte) {
		got, r, err := readAllocated(input)
		if bound := readBound(input); got > bound {
			t.Errorf("%d input bytes allocated %d, over the bound %d", len(input), got, bound)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := r.Write(&out); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("a report Read accepted does not read back: %v", err)
		}
		var again bytes.Buffer
		back.Write(&again)
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("Write(Read(Write(r))) differs from Write(r)")
		}
	})
}
