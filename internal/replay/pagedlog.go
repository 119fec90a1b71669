package replay

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"metascope/internal/phase"
)

// pagedLog is an append-only log whose records never move: add writes a
// record once, into the page it stays in, and a full page is never
// copied — the next record opens a new page. The three per-rank ledger
// logs are pagedLogs, because a slice grown by append copies everything
// written so far at every growth step and, at Go's 1.25x schedule,
// allocates about four times what the log ends up holding.
//
// reserve opens a first page of exactly the size the trace's tally gives
// (trace.Tally), so a preloaded rank's log is one page, exactly full.
// Without a reservation, and past one, pages start at firstPageRecords
// and double up to maxPageRecords: a short rank pays for a short page,
// and whatever the feeder the log allocates at most what it holds plus
// one page.
//
// A finished analysis gives its ledger's pages back (shelve), and open
// takes a page from its record type's shelf before it allocates one, so
// analyses run back to back — the service's jobs, the bench's operations
// — write into pages the last one faulted in, whatever archive it read.
// A page of n records is exactly n either way: a shelved page of a larger
// capacity is cut to n, and the log keeps it whole too (whole), so it goes
// back to the shelf whole and a cut never hides part of an array behind
// a smaller page. Readers stop at a page's length, and the three record
// types hold no pointers, so a stale record is never read and keeps
// nothing alive.
//
// The page tables start in the log itself (one, wholeOne), so a one-page
// log allocates nothing but its page; a pagedLog must therefore not be
// copied once written to.
type pagedLog[T any] struct {
	pages    [][]T
	one      [1][]T
	whole    [][]T // pages[i] at the capacity its array was made with
	wholeOne [1][]T
	next     int // records in the next page add opens; 0 stands for firstPageRecords
	// reused is the bytes of the pages open took off a shelf.
	reused int
}

const (
	firstPageRecords = 32
	maxPageRecords   = 512 // 16 KB of 32-byte records
)

// reserve opens a first page for n records. It is a hint: a log that
// ends up longer continues in pages of the usual sizes.
func (l *pagedLog[T]) reserve(n int) {
	if n > 0 && len(l.pages) == 0 {
		l.open(n)
	}
}

func (l *pagedLog[T]) open(records int) {
	if l.pages == nil {
		l.pages, l.whole = l.one[:0], l.wholeOne[:0]
	}
	pg := shelfOf[T]().take(records)
	l.reused += cap(pg) * int(unsafe.Sizeof(*new(T)))
	if pg == nil {
		pg = make([]T, 0, records)
	}
	l.pages = append(l.pages, pg[:0:records])
	l.whole = append(l.whole, pg)
}

// shelve puts the pages of one ledger log of every rank, the one log
// picks, on its record type's shelf, whole, replacing what the last
// finished analysis left there, and empties the logs. Only a finished
// analysis calls it (analyzer.finish), once its result is built: nothing
// reads the ledger after that, and a failed analysis's pages go to the
// collector with it. One lock per record type keeps a shelf one ledger's
// pages.
func shelve[T any](results []*rankResult, log func(*rankResult) *pagedLog[T]) {
	s := shelfOf[T]()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.class {
		s.class[c] = slices.Delete(s.class[c], 0, len(s.class[c]))
	}
	for _, rr := range results {
		for _, pg := range log(rr).empty() {
			c := bits.Len(uint(cap(pg)))
			i, _ := slices.BinarySearchFunc(s.class[c], cap(pg), byCap)
			s.class[c] = slices.Insert(s.class[c], i, pg[:0])
		}
	}
}

// empty empties the log and returns its pages, whole.
func (l *pagedLog[T]) empty() [][]T {
	whole := l.whole
	l.pages, l.whole = nil, nil
	return whole
}

// shelf holds the ledger pages of one record type that the last finished
// analysis released, at most one ledger's: a dense table of capacity
// classes (bits.Len of the capacity), each a stack descending by
// capacity, equal capacities in the order released. take hands out the
// smallest page of n's class that holds n records — the last of those
// that do, the top when the class's pages are all one size — or the
// smallest of the next class up, so an analysis of an archive already
// analysed gets back pages of exactly its sizes, in whatever order its
// ranks start, and a page serves a log of over a quarter its size. A
// page costs one lock and a binary search; a record costs nothing. Not a
// sync.Pool: a collection empties a pool, and what an analysis allocates
// would depend on when one ran.
type shelf[T any] struct {
	mu    sync.Mutex
	class [bits.UintSize + 2][][]T
}

// shelves holds a shelf per ledger record type.
var shelves = [...]any{new(shelf[recvInfo]), new(shelf[profSample]), new(shelf[phase.Op])}

// shelfOf returns T's shelf, nil for a type no ledger log holds.
func shelfOf[T any]() *shelf[T] {
	for _, s := range shelves {
		if s, ok := s.(*shelf[T]); ok {
			return s
		}
	}
	return nil
}

// byCap orders a class's pages before n when they hold n records or more.
func byCap[T any](pg []T, n int) int { return n - 1 - cap(pg) }

// take returns a shelved page of capacity n or more, or nil.
func (s *shelf[T]) take(n int) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := bits.Len(uint(n)); c <= bits.Len(uint(n))+1; c++ {
		if i, _ := slices.BinarySearchFunc(s.class[c], n, byCap); i > 0 {
			pg := s.class[c][i-1]
			s.class[c] = slices.Delete(s.class[c], i-1, i)
			return pg
		}
	}
	return nil
}

// add appends one record.
func (l *pagedLog[T]) add(v T) {
	k := len(l.pages)
	if k == 0 || len(l.pages[k-1]) == cap(l.pages[k-1]) {
		size := max(l.next, firstPageRecords)
		l.next = min(2*size, maxPageRecords)
		l.open(size)
		k++
	}
	// A reslice, not an append: past the page's capacity it would panic,
	// never copy.
	pg := &l.pages[k-1]
	n := len(*pg)
	*pg = (*pg)[:n+1]
	(*pg)[n] = v
}

// logPos is a reader's place in a pagedLog: a page, and how many of its
// records were read. The zero value is the start of the log.
type logPos struct{ page, off int }

// unread returns the records added since pos, one page's run at a time,
// and moves pos past them; nil once pos is at the end. Only the last page
// can still grow, so pos stays on it.
func (l *pagedLog[T]) unread(pos *logPos) []T {
	for ; pos.page < len(l.pages); pos.page, pos.off = pos.page+1, 0 {
		if pg := l.pages[pos.page]; pos.off < len(pg) {
			run := pg[pos.off:]
			pos.off = len(pg)
			return run
		}
		if pos.page == len(l.pages)-1 {
			break
		}
	}
	return nil
}

// len returns the number of records.
func (l *pagedLog[T]) len() int {
	n := 0
	for _, pg := range l.pages {
		n += len(pg)
	}
	return n
}

// bytes returns what the log's pages occupy, filled or not.
func (l *pagedLog[T]) bytes() int { return pageBytes(l.pages) }

// pageBytes returns what pages occupy, filled or not.
func pageBytes[T any](pages [][]T) int {
	n := 0
	for _, pg := range pages {
		n += cap(pg)
	}
	return n * int(unsafe.Sizeof(*new(T)))
}
