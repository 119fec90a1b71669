package trace

import "fmt"

// StreamValidator applies the structural per-event checks
// incrementally, so a fault caught post-mortem is caught at the same
// event, with the same message, when a trace is decoded as a stream of
// chunks or blocks. It is the one definition of the checks, and it
// tallies the events it passes: every decode that materializes events
// runs it (a v2 block's passes run the same checks and counts on
// register state, and replay a block they refuse through it for the
// message), and so do (*Trace).Validate and (*Trace).Checked on a
// trace built by hand.
type StreamValidator struct {
	loc      Location
	regions  RegionTable
	depth    int
	lastTime float64
	tally    Tally
}

// Tally counts the events a check passed, and what the analyzer sizes a
// rank's ledger logs by: one volume sample per Send, one receive record
// per Recv, one op per Call — an Enter of a region that is not user code,
// which on a trace that passed the checks an Exit closes.
type Tally struct{ Events, Sends, Recvs, Calls int }

// NewStreamValidator prepares a validator for a trace with the given
// header: the location names errors, the region table defines which
// Enter targets are known. Events themselves need not be present.
func NewStreamValidator(t *Trace) StreamValidator {
	return StreamValidator{loc: t.Loc, regions: NewRegionTable(t.Regions)}
}

// Event checks the next event of the stream. Errors are fatal to the
// stream; callers must not continue validating past the first one.
func (v *StreamValidator) Event(ev *Event) error {
	i := v.tally.Events
	// Both formats carry raw float64 bits, and every comparison with a NaN
	// is false: without this check a NaN passes the order test below and
	// an infinity surfaces only when an artifact is rendered.
	if ev.Time-ev.Time != 0 {
		return fmt.Errorf("trace %v: event %d has non-finite time %g", v.loc, i, ev.Time)
	}
	if i > 0 && ev.Time < v.lastTime {
		return fmt.Errorf("trace %v: event %d time %g before predecessor %g",
			v.loc, i, ev.Time, v.lastTime)
	}
	v.lastTime = ev.Time
	v.tally.Events++
	switch ev.Kind {
	case KindEnter:
		r := v.regions.Lookup(ev.Region)
		if r == nil {
			return fmt.Errorf("trace %v: event %d enters unknown region %d", v.loc, i, ev.Region)
		}
		if r.Kind != RegionUser {
			v.tally.Calls++
		}
		v.depth++
	case KindExit:
		v.depth--
		if v.depth < 0 {
			return fmt.Errorf("trace %v: event %d exit without matching enter", v.loc, i)
		}
	case KindSend, KindRecv, KindCollExit:
		if v.depth == 0 {
			return fmt.Errorf("trace %v: event %d %v outside any region", v.loc, i, ev.Kind)
		}
		if ev.Kind == KindSend {
			v.tally.Sends++
		} else if ev.Kind == KindRecv {
			v.tally.Recvs++
		}
	default:
		return fmt.Errorf("trace %v: event %d has invalid kind %d", v.loc, i, ev.Kind)
	}
	return nil
}

// Close checks the end-of-stream invariant, every entered region was
// exited, and returns the tally of the events checked.
func (v *StreamValidator) Close() (Tally, error) {
	if v.depth != 0 {
		return Tally{}, fmt.Errorf("trace %v: %d unclosed region(s) at end of trace", v.loc, v.depth)
	}
	return v.tally, nil
}

// check runs the validator over t's events.
func (t *Trace) check() (Tally, error) {
	v := NewStreamValidator(t)
	for i := range t.Events {
		if err := v.Event(&t.Events[i]); err != nil {
			return Tally{}, err
		}
	}
	return v.Close()
}

// Checked returns the tally of t's events, checked: the one the decoder
// that made Events recorded while it checked them or, for a trace built
// by hand, one walk of the validator, whose tally it returns and does
// not record.
func (t *Trace) Checked() (Tally, error) {
	if t.Tally.Events == len(t.Events) {
		return t.Tally, nil
	}
	return t.check()
}
