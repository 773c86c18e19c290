package check

import (
	"fmt"
	"sort"

	"bayou/internal/core"
	"bayou/internal/history"
	"bayou/internal/spec"
)

// Witness is the abstract execution (vis, ar, par) constructed from the
// protocol's run data, following the proof of Theorem 2 (Appendix A.2.3):
//
//   - ar: TOB-delivered events by tobNo; TOB-cast-but-undelivered events
//     after all delivered ones, in request order; events never TOB-cast
//     (weak read-only requests of Algorithm 2) interleaved by request order;
//   - vis: a TOB-cast event is visible to e exactly when it occurs in
//     exec(e) (the trace from which e's response was computed); a never-cast
//     read-only event is visible according to request order;
//   - par(e): the trace exec(e)·e itself — visible events are perceived in
//     trace order, everything else relative to ar.
type Witness struct {
	H *history.History

	// Traces share the history's committed prefix (history.Event.Trace), so
	// the witness indexes it once: commitPos is each committed dot's TOB
	// position, prefixEv/prefixUpd are the committed events (all, and the
	// updating ones) in commit order, and prefixN/prefixUpdN[k] count those
	// among the first k commits. suffix[e] maps each dot of e.Trace to its
	// index there.
	commitPos  map[core.Dot]int
	prefixEv   []*history.Event
	prefixUpd  []*history.Event
	prefixN    []int
	prefixUpdN []int
	suffix     []map[core.Dot]int
}

// NewWitness builds the abstract execution for a recorded history.
func NewWitness(h *history.History) *Witness {
	w := &Witness{
		H:          h,
		commitPos:  make(map[core.Dot]int, len(h.Commits)),
		prefixN:    make([]int, len(h.Commits)+1),
		prefixUpdN: make([]int, len(h.Commits)+1),
		suffix:     make([]map[core.Dot]int, len(h.Events)),
	}
	for i, d := range h.Commits {
		w.commitPos[d] = i + 1
		if x := h.ByDot(d); x != nil {
			w.prefixEv = append(w.prefixEv, x)
			if !x.IsReadOnly() {
				w.prefixUpd = append(w.prefixUpd, x)
			}
		}
		w.prefixN[i+1], w.prefixUpdN[i+1] = len(w.prefixEv), len(w.prefixUpd)
	}
	for _, e := range h.Events {
		set := make(map[core.Dot]int, len(e.Trace))
		for i, d := range e.Trace {
			set[d] = i
		}
		w.suffix[e.ID] = set
	}
	return w
}

// inTrace reports whether d occurs in exec(e).
func (w *Witness) inTrace(e *history.Event, d core.Dot) bool {
	return w.tracePos(e, d) >= 0
}

// tracePos returns the index of d in exec(e), or -1.
func (w *Witness) tracePos(e *history.Event, d core.Dot) int {
	if p := w.commitPos[d]; p > 0 && p <= e.TraceBase {
		return p - 1
	}
	if i, ok := w.suffix[e.ID][d]; ok {
		return e.TraceBase + i
	}
	return -1
}

// delivered reports whether the event's request was TOB-delivered within the
// observation horizon.
func delivered(e *history.Event) bool { return e.TOBNo > 0 }

// anchored reports whether the event has a fixed position in the global
// commit order: TOB-delivered events sit at their delivery position, and
// lease reads — strong reads served locally under the ordering lease,
// never TOB-cast — sit between the commit they read up to and the next one.
func anchored(e *history.Event) bool { return delivered(e) || e.LeaseRead }

// arPos maps an anchored event to its position on a common axis: commit k
// at 2k, a lease read that observed the k-length committed prefix at 2k+1 —
// strictly after commit k and strictly before commit k+1. Positions
// coincide only for lease reads that observed the same prefix; those are
// mutually read-only and tie-broken by request order.
func arPos(e *history.Event) int64 {
	if e.LeaseRead {
		return 2*e.LeaseNo + 1
	}
	return 2 * e.TOBNo
}

// ArLess is the arbitration comparator of the Theorem 2 proof, extended to
// lease reads: anchored events (delivered, or lease-served) by their commit-
// axis position, TOB-cast-but-undelivered events after all anchored ones in
// request order, never-cast weak reads interleaved by request order.
func (w *Witness) ArLess(a, b *history.Event) bool {
	if a == b {
		return false
	}
	if (!a.TOBCast && !a.LeaseRead) || (!b.TOBCast && !b.LeaseRead) {
		return history.ReqLess(a, b)
	}
	da, db := anchored(a), anchored(b)
	switch {
	case da && db:
		pa, pb := arPos(a), arPos(b)
		if pa != pb {
			return pa < pb
		}
		return history.ReqLess(a, b)
	case da:
		return true
	case db:
		return false
	default:
		return history.ReqLess(a, b)
	}
}

// Vis is the visibility relation of the Theorem 2 proof.
func (w *Witness) Vis(a, b *history.Event) bool {
	if a == b {
		return false
	}
	if a.LeaseRead {
		// A lease read is read-only and never cast, so no trace can hold
		// it; its visibility follows its arbitration anchor, keeping
		// vis ⊆ ar.
		return w.ArLess(a, b)
	}
	if !a.TOBCast {
		// Never-cast (weak read-only) events are "visible" by request
		// order — the formal completeness rule of the proof.
		return history.ReqLess(a, b)
	}
	return w.inTrace(b, a.Dot)
}

// ArRel materializes the arbitration relation (diagnostics; predicates use
// the comparator directly).
func (w *Witness) ArRel() *history.Rel {
	return history.FromLess(len(w.H.Events), func(a, b history.EventID) bool {
		return w.ArLess(w.H.Events[a], w.H.Events[b])
	})
}

// ArTotal verifies that the constructed arbitration is a strict total order
// over the history. The paper's construction can fail totality only under
// unbounded clock drift (see DESIGN.md §3); this diagnostic makes the
// assumption checkable per run.
func (w *Witness) ArTotal() Result {
	if w.ArRel().IsStrictTotalOrder() {
		return Result{Predicate: "ar-total", Holds: true, Detail: fmt.Sprintf("%d events", len(w.H.Events))}
	}
	return Result{Predicate: "ar-total", Holds: false, Detail: "constructed arbitration is not a strict total order (clock drift beyond model assumptions?)"}
}

// traceEvents maps e's exec(e) trace to history events (in trace order),
// dropping dots that are not part of the history (none, for complete
// recordings). The result may share the committed prefix with other
// events' traces: callers must not write to it.
func (w *Witness) traceEvents(e *history.Event) []*history.Event {
	return w.suffixEvents(w.prefixEv[:w.prefixN[e.TraceBase]:w.prefixN[e.TraceBase]], e, false)
}

// updatingTrace restricts the trace to updating (non-read-only) events — the
// operation context after applying the read-only axiom of §3.4. Shared like
// traceEvents.
func (w *Witness) updatingTrace(e *history.Event) []*history.Event {
	return w.suffixEvents(w.prefixUpd[:w.prefixUpdN[e.TraceBase]:w.prefixUpdN[e.TraceBase]], e, true)
}

// suffixEvents appends the history events of e.Trace to out, only the
// updating ones if updating is set.
func (w *Witness) suffixEvents(out []*history.Event, e *history.Event, updating bool) []*history.Event {
	for _, d := range e.Trace {
		if x := w.H.ByDot(d); x != nil && !(updating && x.IsReadOnly()) {
			out = append(out, x)
		}
	}
	return out
}

// expectedFRVal computes F(op(e), fcontext(A, e)): the visible updating
// operations replayed in perceived (trace) order.
func (w *Witness) expectedFRVal(e *history.Event) spec.Value {
	ctx := w.updatingTrace(e)
	ops := make([]spec.Op, len(ctx))
	for i, x := range ctx {
		ops[i] = x.Op
	}
	return spec.Eval(ops, e.Op)
}

// expectedRVal computes F(op(e), context(A, e)): the visible updating
// operations replayed in arbitration order.
func (w *Witness) expectedRVal(e *history.Event) spec.Value {
	ctx := append([]*history.Event(nil), w.updatingTrace(e)...)
	sort.SliceStable(ctx, func(i, j int) bool { return w.ArLess(ctx[i], ctx[j]) })
	ops := make([]spec.Op, len(ctx))
	for i, x := range ctx {
		ops[i] = x.Op
	}
	return spec.Eval(ops, e.Op)
}
