package replay

import (
	"math/rand"
	"testing"
)

// TestPagedLogMatchesSlice: whatever its length and however wrong its
// reservation, a paged log holds the records a plain slice would, in the
// same order walked forwards and backwards; no record moves once written
// — the first record of every page stays at its address through every
// later add; and the pages hold at most one page more than the records.
func TestPagedLogMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	lengths := []int{0, 1, firstPageRecords - 1, firstPageRecords, firstPageRecords + 1, maxPageRecords, 20000}
	for len(lengths) < 40 {
		lengths = append(lengths, rng.Intn(20001))
	}
	hints := map[string]func(n int) int{
		"absent":        func(int) int { return 0 },
		"exact":         func(n int) int { return n },
		"10x too small": func(n int) int { return n / 10 },
		"10x too large": func(n int) int { return 10 * n },
	}
	for _, n := range lengths {
		for name, hint := range hints {
			var l pagedLog[profSample]
			reserved := hint(n)
			l.reserve(reserved)
			var want []profSample
			var firsts []*profSample // &page[0] of every page, taken when the page got its first record
			for i := 0; i < n; i++ {
				rec := profSample{start: float64(i), val: rng.Float64(), rank: int32(i)}
				want = append(want, rec)
				l.add(rec)
				if pg := l.pages[len(l.pages)-1]; len(pg) == 1 {
					firsts = append(firsts, &pg[0])
				}
			}
			if l.len() != n {
				t.Fatalf("n=%d, hint %s: len() = %d", n, name, l.len())
			}
			i, held := 0, 0
			for p, pg := range l.pages {
				held += cap(pg)
				if len(pg) > 0 {
					if &pg[0] != firsts[0] {
						t.Fatalf("n=%d, hint %s: page %d moved", n, name, p)
					}
					firsts = firsts[1:]
				}
				for _, rec := range pg {
					if rec != want[i] {
						t.Fatalf("n=%d, hint %s: record %d is %+v, want %+v", n, name, i, rec, want[i])
					}
					i++
				}
			}
			if i != n || len(firsts) != 0 {
				t.Fatalf("n=%d, hint %s: the forward walk saw %d records, %d pages unaccounted for", n, name, i, len(firsts))
			}
			for p := len(l.pages) - 1; p >= 0; p-- {
				for j := len(l.pages[p]) - 1; j >= 0; j-- {
					i--
					if l.pages[p][j] != want[i] {
						t.Fatalf("n=%d, hint %s: backwards, record %d is %+v, want %+v", n, name, i, l.pages[p][j], want[i])
					}
				}
			}
			if i != 0 {
				t.Fatalf("n=%d, hint %s: the backward walk ended at record %d", n, name, i)
			}
			// What a reservation of more than the log holds costs is the
			// reservation; beyond that, at most one page is not full.
			if limit := max(n, reserved) + maxPageRecords; held > limit {
				t.Errorf("n=%d, hint %s: pages hold %d records, want at most %d", n, name, held, limit)
			}
			if got := l.bytes(); got != held*32 {
				t.Errorf("n=%d, hint %s: bytes() = %d for %d 32-byte records", n, name, got, held)
			}
			if name == "exact" && n > 0 && (len(l.pages) != 1 || held != n) {
				t.Errorf("n=%d: an exact reservation gave %d pages holding %d", n, len(l.pages), held)
			}
			if name == "absent" && n > 0 && n <= firstPageRecords && held != firstPageRecords {
				t.Errorf("n=%d: a short log holds %d records, want one page of %d", n, held, firstPageRecords)
			}
		}
	}
}
