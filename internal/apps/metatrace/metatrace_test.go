package metatrace

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDims3KnownSizes(t *testing.T) {
	cases := map[int]Dims{
		1:  {1, 1, 1},
		2:  {2, 1, 1},
		4:  {2, 2, 1},
		8:  {2, 2, 2},
		16: {4, 2, 2}, // the paper's 16-process Trace grid
		27: {3, 3, 3},
		64: {4, 4, 4},
		12: {3, 2, 2},
	}
	for n, want := range cases {
		got := Dims3(n)
		if got != want {
			t.Errorf("Dims3(%d) = %v, want %v", n, got, want)
		}
	}
}

// Property: Dims3 always factors exactly with X ≥ Y ≥ Z ≥ 1.
func TestDims3Property(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw)%512 + 1
		d := Dims3(n)
		return d.X*d.Y*d.Z == n && d.X >= d.Y && d.Y >= d.Z && d.Z >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 512}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordRankRoundTrip(t *testing.T) {
	d := Dims3(16)
	for r := 0; r < 16; r++ {
		x, y, z := Coord(d, r)
		if RankOf(d, x, y, z) != r {
			t.Fatalf("round trip broken at rank %d", r)
		}
		if x < 0 || x >= d.X || y < 0 || y >= d.Y || z < 0 || z >= d.Z {
			t.Fatalf("coord out of range at rank %d", r)
		}
	}
}

func TestNeighborsSymmetricAndBounded(t *testing.T) {
	d := Dims3(16)
	for r := 0; r < 16; r++ {
		nbs := Neighbors(d, r)
		if len(nbs) < 3 || len(nbs) > 6 {
			t.Errorf("rank %d has %d neighbours", r, len(nbs))
		}
		for _, nb := range nbs {
			if nb == r {
				t.Errorf("rank %d is its own neighbour", r)
			}
			// Symmetry: r must appear in nb's list.
			found := false
			for _, back := range Neighbors(d, nb) {
				if back == r {
					found = true
				}
			}
			if !found {
				t.Errorf("neighbour relation not symmetric: %d -> %d", r, nb)
			}
		}
	}
}

func TestNeighborsCrossZPlane(t *testing.T) {
	// In the 4x2x2 grid, ranks 0-7 (z=0) and 8-15 (z=1) pair up
	// exactly across the z boundary — this is the FH-BRS/CAESAR
	// boundary that produces the Grid Late Sender in Experiment 1.
	d := Dims3(16)
	for r := 0; r < 8; r++ {
		nbs := Neighbors(d, r)
		hasZPartner := false
		for _, nb := range nbs {
			if nb == r+8 {
				hasZPartner = true
			}
		}
		if !hasZPartner {
			t.Errorf("rank %d lacks its z-partner %d (neighbours %v)", r, r+8, nbs)
		}
	}
}

func TestNeighborsDeterministicOrder(t *testing.T) {
	d := Dims3(16)
	a := Neighbors(d, 5)
	b := Neighbors(d, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("neighbour order unstable")
	}
	if sort.IntsAreSorted(a) {
		// not required — just ensure the order is the documented
		// (-x,+x,-y,+y,-z,+z) sequence for an interior-ish rank
		_ = a
	}
	// rank 5 = (1,1,0): -x=4, +x=6, -y=1, +z=13.
	want := []int{4, 6, 1, 13}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("Neighbors(5) = %v, want %v", a, want)
	}
}

func TestDefaultParamsSanity(t *testing.T) {
	p := Default(16)
	if p.NT != 16 || p.Steps <= 0 || p.CGIters <= 0 {
		t.Fatalf("bad defaults %+v", p)
	}
	if p.FieldBytes != 200<<20 {
		t.Errorf("velocity field %d bytes, want 200 MB (paper §5)", p.FieldBytes)
	}
	// The per-pair chunk must exceed the eager limit so the transfer is
	// a rendezvous, as a 12.5 MB message would be.
	if p.FieldBytes/p.NT <= 64<<10 {
		t.Errorf("field chunk too small to exercise rendezvous")
	}
	if p.HaloBytes >= 64<<10 {
		t.Errorf("halo messages should be eager-sized")
	}
}
