package trace

import "fmt"

// StreamValidator applies the structural per-event checks
// incrementally, so a fault caught post-mortem is caught at the same
// event, with the same message, when a trace is decoded as a stream of
// chunks or blocks. It is the one definition of the checks:
// (*Trace).Validate runs it, and BlockReader.NextInto — what every lazy
// or live rank log pulls through — runs the same checks inside its
// decode passes and replays a block they refuse through it for the
// message.
type StreamValidator struct {
	loc      Location
	regions  RegionTable
	depth    int
	lastTime float64
	n        int
}

// NewStreamValidator prepares a validator for a trace with the given
// header: the location names errors, the region table defines which
// Enter targets are known. Events themselves need not be present.
func NewStreamValidator(t *Trace) *StreamValidator {
	return &StreamValidator{loc: t.Loc, regions: NewRegionTable(t.Regions)}
}

// Event checks the next event of the stream. Errors are fatal to the
// stream; callers must not continue validating past the first one.
func (v *StreamValidator) Event(ev *Event) error {
	i := v.n
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
	v.n++
	switch ev.Kind {
	case KindEnter:
		if v.regions.Lookup(ev.Region) == nil {
			return fmt.Errorf("trace %v: event %d enters unknown region %d", v.loc, i, ev.Region)
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
	default:
		return fmt.Errorf("trace %v: event %d has invalid kind %d", v.loc, i, ev.Kind)
	}
	return nil
}

// Close checks the end-of-stream invariant: every entered region was
// exited.
func (v *StreamValidator) Close() error {
	if v.depth != 0 {
		return fmt.Errorf("trace %v: %d unclosed region(s) at end of trace", v.loc, v.depth)
	}
	return nil
}
