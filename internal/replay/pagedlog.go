package replay

import "unsafe"

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
// The page table starts in the log itself (one), so a one-page log
// allocates nothing but its page; a pagedLog must therefore not be
// copied once written to.
type pagedLog[T any] struct {
	pages [][]T
	one   [1][]T
	next  int // records in the next page add opens; 0 stands for firstPageRecords
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
		l.pages = l.one[:0]
	}
	l.pages = append(l.pages, make([]T, 0, records))
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
func (l *pagedLog[T]) bytes() int {
	var rec T
	n := 0
	for _, pg := range l.pages {
		n += cap(pg)
	}
	return n * int(unsafe.Sizeof(rec))
}
