package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Phases aggregates phase timers into a per-run breakdown. Spans
// started with Start nest via an internal stack (the sequential
// orchestration layers — build, measure, analyze — use this);
// concurrent contributors deposit externally measured durations with
// Record. Repeated spans of the same name under the same parent
// aggregate (count + total), and the breakdown lists phases in
// first-seen order, so the output is deterministic for a given call
// sequence.
type Phases struct {
	mu    sync.Mutex
	now   func() time.Time
	root  *phaseNode
	stack []*phaseNode
}

type phaseNode struct {
	name     string
	children map[string]*phaseNode
	order    []*phaseNode
	count    int
	total    time.Duration
}

// NewPhases creates an empty phase tree.
func NewPhases() *Phases {
	return &Phases{now: time.Now, root: &phaseNode{}}
}

// SetClock replaces the time source; tests inject a fake clock to make
// span durations deterministic.
func (p *Phases) SetClock(now func() time.Time) {
	p.mu.Lock()
	p.now = now
	p.mu.Unlock()
}

func (p *Phases) childLocked(parent *phaseNode, name string) *phaseNode {
	if parent.children == nil {
		parent.children = make(map[string]*phaseNode)
	}
	n, ok := parent.children[name]
	if !ok {
		n = &phaseNode{name: name}
		parent.children[name] = n
		parent.order = append(parent.order, n)
	}
	return n
}

// Span is one open phase timer.
type Span struct {
	p     *Phases
	n     *phaseNode
	start time.Time
	ended bool
}

// Start opens a span as a child of the innermost open stack span (or
// at the top level). The returned span must be closed with End.
func (p *Phases) Start(name string) *Span {
	p.mu.Lock()
	defer p.mu.Unlock()
	parent := p.root
	if len(p.stack) > 0 {
		parent = p.stack[len(p.stack)-1]
	}
	n := p.childLocked(parent, name)
	p.stack = append(p.stack, n)
	return &Span{p: p, n: n, start: p.now()}
}

// End closes the span, folds its duration into the aggregate, and
// returns the duration. Ending a span twice (or a nil span) is a
// harmless no-op returning zero.
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	d := s.p.now().Sub(s.start)
	s.n.count++
	s.n.total += d
	for i := len(s.p.stack) - 1; i >= 0; i-- {
		if s.p.stack[i] == s.n {
			s.p.stack = append(s.p.stack[:i], s.p.stack[i+1:]...)
			break
		}
	}
	return d
}

// Record deposits an externally measured duration at the given
// absolute path (independent of the stack), creating intermediate
// phases as needed. Layers whose sub-phases are interleaved across
// many goroutines (the measurement runtime's per-rank protocol rounds)
// use this to contribute one aggregate per phase.
func (p *Phases) Record(d time.Duration, path ...string) {
	if len(path) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.root
	for _, name := range path {
		n = p.childLocked(n, name)
	}
	n.count++
	n.total += d
}

// PhaseTiming is one aggregated phase of the breakdown.
type PhaseTiming struct {
	// Path is the '/'-joined phase path, e.g. "measure/sync".
	Path string
	// Name is the leaf phase name.
	Name string
	// Depth is the nesting depth (0 = top level).
	Depth int
	// Count is the number of completed spans aggregated here.
	Count int
	// Total is the summed duration of those spans.
	Total time.Duration
}

// Breakdown returns the aggregated phases in first-seen order
// (depth-first), including phases that only exist as parents of
// recorded children.
func (p *Phases) Breakdown() []PhaseTiming {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PhaseTiming
	var walk func(n *phaseNode, prefix string, depth int)
	walk = func(n *phaseNode, prefix string, depth int) {
		for _, c := range n.order {
			path := c.name
			if prefix != "" {
				path = prefix + "/" + c.name
			}
			out = append(out, PhaseTiming{Path: path, Name: c.name, Depth: depth, Count: c.count, Total: c.total})
			walk(c, path, depth+1)
		}
	}
	walk(p.root, "", 0)
	return out
}

// PhaseSnapshot is one phase in a JSON snapshot.
type PhaseSnapshot struct {
	Path    string  `json:"path"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Snapshot renders the breakdown for JSON export.
func (p *Phases) Snapshot() []PhaseSnapshot {
	bd := p.Breakdown()
	out := make([]PhaseSnapshot, len(bd))
	for i, t := range bd {
		out[i] = PhaseSnapshot{Path: t.Path, Count: t.Count, Seconds: t.Total.Seconds()}
	}
	return out
}

// Format renders the breakdown as an indented table.
func (p *Phases) Format() string {
	bd := p.Breakdown()
	if len(bd) == 0 {
		return "no phases recorded\n"
	}
	var b strings.Builder
	b.WriteString("Phase breakdown (wall time):\n")
	for _, t := range bd {
		fmt.Fprintf(&b, "  %-36s %5d  %12s\n",
			strings.Repeat("  ", t.Depth)+t.Name, t.Count, t.Total.Round(time.Microsecond))
	}
	return b.String()
}
