package metatrace

// Three-dimensional domain decomposition with nearest-neighbour
// connectivity, matching Trace's solver structure ("Trace applies a
// three-dimensional domain decomposition with nearest-neighbor
// communication", §5).

// Dims holds the process-grid extents.
type Dims struct{ X, Y, Z int }

// Dims3 factors n into three factors as close to each other as
// possible, preferring larger extents in X (the contiguous dimension).
// For 16 it yields 4×2×2, the grid used by the 16-process Trace runs.
func Dims3(n int) Dims {
	best := Dims{n, 1, 1}
	bestScore := score(best)
	for z := 1; z*z*z <= n; z++ {
		if n%z != 0 {
			continue
		}
		rest := n / z
		for y := z; y*y <= rest; y++ {
			if rest%y != 0 {
				continue
			}
			d := Dims{X: rest / y, Y: y, Z: z}
			if s := score(d); s < bestScore {
				best, bestScore = d, s
			}
		}
	}
	return best
}

// score measures how far from cubic a decomposition is (surface area
// of the unit process grid; smaller is better balanced).
func score(d Dims) int {
	return d.X*d.Y + d.Y*d.Z + d.X*d.Z
}

// Coord returns the grid coordinates of a rank (x fastest).
func Coord(d Dims, rank int) (x, y, z int) {
	x = rank % d.X
	y = (rank / d.X) % d.Y
	z = rank / (d.X * d.Y)
	return
}

// RankOf returns the rank at grid coordinates (x, y, z).
func RankOf(d Dims, x, y, z int) int {
	return x + d.X*(y+d.Y*z)
}

// Neighbors returns the ranks of the up to six face neighbours of a
// rank in deterministic order (−x, +x, −y, +y, −z, +z; boundaries are
// non-periodic and skipped).
func Neighbors(d Dims, rank int) []int {
	x, y, z := Coord(d, rank)
	var out []int
	if x > 0 {
		out = append(out, RankOf(d, x-1, y, z))
	}
	if x < d.X-1 {
		out = append(out, RankOf(d, x+1, y, z))
	}
	if y > 0 {
		out = append(out, RankOf(d, x, y-1, z))
	}
	if y < d.Y-1 {
		out = append(out, RankOf(d, x, y+1, z))
	}
	if z > 0 {
		out = append(out, RankOf(d, x, y, z-1))
	}
	if z < d.Z-1 {
		out = append(out, RankOf(d, x, y, z+1))
	}
	return out
}
