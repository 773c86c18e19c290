// Package history implements the observable-behaviour side of the paper's
// formal framework (§3): histories as event graphs H = (E, op, rval, rb, ß,
// lvl), the derived session order so = rb ∩ ß, and the relation algebra the
// correctness predicates are built from.
//
// Each event additionally carries the *witness data* recorded by the cluster
// driver from the protocol's own run — the request dot and timestamp, the
// TOB delivery position (tobNo), and exec(e), the state-object trace from
// which the response was computed. The witness data is what lets
// internal/check construct vis, ar and par exactly as in the proofs of
// Theorems 2 and 3 instead of searching for them; the search-mode checker in
// internal/check ignores the witness fields and works from the observable
// history alone.
package history

import (
	"fmt"
	"sort"

	"bayou/internal/core"
	"bayou/internal/spec"
)

// EventID indexes events within one history.
type EventID int

// Event is one invocation in the history, with observables (top group) and
// run witnesses (bottom group).
type Event struct {
	ID      EventID
	Session core.SessionID // ß: events with equal Session are same-session
	Op      spec.Op
	Level   core.Level
	RVal    spec.Value
	Pending bool  // rval(e) = ∇
	Invoke  int64 // global logical time of the invoke event (strictly ordered)
	Return  int64 // global logical time of the response; undefined while Pending

	// WallInvoke/WallReturn are the simulated wall-clock times of the
	// invocation and response, used by the latency experiments (the
	// Invoke/Return fields above are logical sequence numbers that break
	// same-instant ties for the rb relation).
	WallInvoke int64
	WallReturn int64

	// Witness data (see package comment).
	Dot       core.Dot
	Timestamp int64
	TOBCast   bool
	TOBNo     int64 // 1-based delivery position; -1 if never TOB-delivered
	// Trace is exec(e) past its first TraceBase entries, which are the
	// committed prefix the responding replica had checkpointed: exec(e) is
	// History.Commits[:TraceBase] followed by Trace (History.Trace). Events
	// share that prefix instead of each holding a copy, so a long run's
	// history stays linear in its length.
	Trace        []core.Dot
	TraceBase    int
	CommittedLen int

	// LeaseRead marks a strong read served locally under the ordering lease
	// (zero proposal rounds): it was never TOB-cast, but it *is* anchored in
	// the commit order — LeaseNo is the length of the committed prefix it
	// read, placing it between the commits numbered LeaseNo and LeaseNo+1 in
	// the arbitration the checkers reconstruct.
	LeaseRead bool
	LeaseNo   int64

	// Session-guarantee witnesses: the guarantee mask the issuing session
	// carried, and the demand vectors the serving replica proved coverage
	// of before accepting the invocation (zero for plain sessions). The
	// guarantee checker replays these against the trace witnesses.
	Guarantees core.Guarantee
	ReadVec    core.Vec
	WriteVec   core.Vec
}

// IsReadOnly reports whether the event's operation is read-only.
func (e *Event) IsReadOnly() bool { return e.Op.ReadOnly() }

// History is a well-formed history plus the quiescence cutoff used by the
// finite-trace adaptations of the "eventually" predicates (see DESIGN.md §3).
type History struct {
	Events []*Event
	// StableAt is the global time after which the run had quiesced: all
	// messages delivered, all internal work drained. Events invoked
	// after StableAt act as the probes against which EV and CPar are
	// checked. Zero means "treat every event as a probe".
	StableAt int64
	// Commits is the commit order (Commits[i] committed at TOB position
	// i+1), at least as long as every event's TraceBase.
	Commits []core.Dot

	byDot map[core.Dot]*Event
}

// New assembles a history from events, indexing them by dot and assigning
// IDs in slice order.
func New(events []*Event, stableAt int64) (*History, error) {
	h := &History{Events: events, StableAt: stableAt, byDot: make(map[core.Dot]*Event, len(events))}
	for i, e := range events {
		e.ID = EventID(i)
		if _, dup := h.byDot[e.Dot]; dup {
			return nil, fmt.Errorf("history: duplicate dot %s", e.Dot)
		}
		h.byDot[e.Dot] = e
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// validate enforces well-formedness (§3.2): per session, operations are
// sequential and nothing follows a pending operation.
func (h *History) validate() error {
	bySession := make(map[core.SessionID][]*Event)
	for _, e := range h.Events {
		bySession[e.Session] = append(bySession[e.Session], e)
	}
	for s, evs := range bySession {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Invoke < evs[j].Invoke })
		for i := 0; i < len(evs)-1; i++ {
			if evs[i].Pending {
				return fmt.Errorf("history: session %d has event after pending %s", s, evs[i].Dot)
			}
			if evs[i].Return > evs[i+1].Invoke {
				return fmt.Errorf("history: session %d overlapping events %s, %s", s, evs[i].Dot, evs[i+1].Dot)
			}
		}
	}
	return nil
}

// Trace returns exec(e) whole: the shared committed prefix, then e.Trace.
func (h *History) Trace(e *Event) []core.Dot {
	if e.TraceBase == 0 {
		return e.Trace
	}
	return append(h.Commits[:e.TraceBase:e.TraceBase], e.Trace...)
}

// ByDot returns the event with the given dot, or nil.
func (h *History) ByDot(d core.Dot) *Event { return h.byDot[d] }

// ReturnsBefore is rb: a returned before b was invoked (real time).
func (h *History) ReturnsBefore(a, b *Event) bool {
	return !a.Pending && a.Return < b.Invoke
}

// SameSession is ß.
func (h *History) SameSession(a, b *Event) bool { return a.Session == b.Session }

// SessionOrder is so = rb ∩ ß.
func (h *History) SessionOrder(a, b *Event) bool {
	return h.SameSession(a, b) && h.ReturnsBefore(a, b)
}

// Levels returns the events at the given level.
func (h *History) Levels(l core.Level) []*Event {
	var out []*Event
	for _, e := range h.Events {
		if e.Level == l {
			out = append(out, e)
		}
	}
	return out
}

// Updating returns the non-read-only events.
func (h *History) Updating() []*Event {
	var out []*Event
	for _, e := range h.Events {
		if !e.IsReadOnly() {
			out = append(out, e)
		}
	}
	return out
}

// Probes returns the non-pending events invoked after the quiescence cutoff
// (the finite-trace stand-ins for "all but finitely many subsequent
// events").
func (h *History) Probes() []*Event {
	var out []*Event
	for _, e := range h.Events {
		if !e.Pending && e.Invoke > h.StableAt {
			out = append(out, e)
		}
	}
	return out
}

// ReqLess is the request order (timestamp, dot) of Algorithm 1 line 2,
// lifted to events.
func ReqLess(a, b *Event) bool {
	if a.Timestamp != b.Timestamp {
		return a.Timestamp < b.Timestamp
	}
	if a.Dot.Replica != b.Dot.Replica {
		return a.Dot.Replica < b.Dot.Replica
	}
	return a.Dot.EventNo < b.Dot.EventNo
}
