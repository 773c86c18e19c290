package check

import (
	"fmt"

	"bayou/internal/core"
)

// Session-guarantee checking over recorded histories.
//
// The global predicates of predicates.go (MonotonicReads, MonotonicWrites,
// WritesFollowReads, ReadYourWrites) quantify over *every* session and, for
// the write guarantees, over every observer in the system — the form the
// paper's §A.1.2 discussion uses to show what plain Bayou does and does not
// provide. The checks here are different on two axes, matching what the
// mobile-session API actually promises:
//
//   - They are *scoped*: only events whose issuing session carried the
//     guarantee (Event.Guarantees) are constrained. A plain session
//     promises nothing, and a guarantee session constrains no one else.
//   - The write guarantees (MW, WFR) are checked client-centrically:
//     against the final arbitration order and against the session's *own*
//     subsequent observations. Without causal dissemination a third
//     replica can transiently execute a write before the writes it depends
//     on arrive — the "temporary" of temporary operation reordering — so
//     global trace-positional forms are not enforceable by per-session
//     coverage gating, while the ar-level and self-perception forms are.
//
// Each guarantee maps onto a vector predicate the drivers enforce:
//
//	RYW  — read demand ⊇ session write-vector; exec(e) must contain it.
//	MR   — read demand ⊇ session read-vector; exec(e) must contain it.
//	MW   — write demand ⊇ session write-vector; ar must respect it.
//	WFR  — write demand ⊇ session read-vector; ar must respect it.
//
// The Coverage predicate closes the loop on the read side directly from
// the recorded demand vectors (Event.ReadVec): every accepted invocation's
// trace must dominate the demand its serving replica proved.

// Guarantees assembles the report for the selected guarantee mask.
func (w *Witness) Guarantees(g core.Guarantee) Report {
	rep := Report{Guarantee: fmt.Sprintf("Guarantees(%s)", g)}
	if g.Has(core.ReadYourWrites) {
		rep.Results = append(rep.Results, w.SessionRYW())
	}
	if g.Has(core.MonotonicReads) {
		rep.Results = append(rep.Results, w.SessionMR())
	}
	if g.Has(core.MonotonicWrites) {
		rep.Results = append(rep.Results, w.SessionMW())
	}
	if g.Has(core.WritesFollowReads) {
		rep.Results = append(rep.Results, w.SessionWFR())
	}
	if g&(core.ReadYourWrites|core.MonotonicReads) != 0 {
		rep.Results = append(rep.Results, w.Coverage())
	}
	return rep
}

// SessionRYW checks read-your-writes for the sessions that carried it:
// every response of such a session observes all of the session's preceding
// updating operations in its trace.
func (w *Witness) SessionRYW() Result {
	checked := 0
	for _, e := range w.H.Events {
		if e.Pending || !e.Guarantees.Has(core.ReadYourWrites) {
			continue
		}
		checked++
		for _, x := range w.H.Events {
			if x == e || x.IsReadOnly() || !w.H.SessionOrder(x, e) {
				continue
			}
			if !w.inTrace(e, x.Dot) {
				return Result{Predicate: "RYW(sessions)", Holds: false,
					Detail: fmt.Sprintf("%s (%s) did not observe own session's earlier %s (%s)", e.Dot, e.Op.Name(), x.Dot, x.Op.Name())}
			}
		}
	}
	return Result{Predicate: "RYW(sessions)", Holds: true, Detail: fmt.Sprintf("%d guaranteed events", checked)}
}

// SessionMR checks monotonic reads for the sessions that carried it: an
// updating operation observed by an earlier response of the session stays
// observed by every later response.
func (w *Witness) SessionMR() Result {
	checked := 0
	for _, e := range w.H.Events {
		if e.Pending || !e.Guarantees.Has(core.MonotonicReads) {
			continue
		}
		checked++
		for _, earlier := range w.H.Events {
			if earlier.Pending || earlier == e || !w.H.SessionOrder(earlier, e) {
				continue
			}
			for _, x := range w.H.Events {
				if x == e || x.IsReadOnly() {
					continue
				}
				if w.inTrace(earlier, x.Dot) && !w.inTrace(e, x.Dot) {
					return Result{Predicate: "MR(sessions)", Holds: false,
						Detail: fmt.Sprintf("%s observed %s but the later %s lost it", earlier.Dot, x.Dot, e.Dot)}
				}
			}
		}
	}
	return Result{Predicate: "MR(sessions)", Holds: true, Detail: fmt.Sprintf("%d guaranteed events", checked)}
}

// SessionMW checks monotonic writes for the sessions that carried it: the
// session's updating operations are arbitrated in session order, and the
// session's own responses never perceive them out of order.
func (w *Witness) SessionMW() Result {
	checked := 0
	for _, w2 := range w.H.Events {
		if w2.IsReadOnly() || !w2.Guarantees.Has(core.MonotonicWrites) {
			continue
		}
		checked++
		for _, w1 := range w.H.Events {
			if w1.IsReadOnly() || !w.H.SessionOrder(w1, w2) {
				continue
			}
			if w.ArLess(w2, w1) {
				return Result{Predicate: "MW(sessions)", Holds: false,
					Detail: fmt.Sprintf("arbitration orders %s before the session-earlier %s", w2.Dot, w1.Dot)}
			}
			for _, e := range w.H.Events {
				if e.Pending || e.Session != w2.Session || !w.inTrace(e, w2.Dot) {
					continue
				}
				if !w.inTrace(e, w1.Dot) {
					return Result{Predicate: "MW(sessions)", Holds: false,
						Detail: fmt.Sprintf("%s perceived %s without the session-earlier %s", e.Dot, w2.Dot, w1.Dot)}
				}
				if w.tracePos(e, w1.Dot) > w.tracePos(e, w2.Dot) {
					return Result{Predicate: "MW(sessions)", Holds: false,
						Detail: fmt.Sprintf("%s perceived %s before the session-earlier %s", e.Dot, w2.Dot, w1.Dot)}
				}
			}
		}
	}
	return Result{Predicate: "MW(sessions)", Holds: true, Detail: fmt.Sprintf("%d guaranteed writes", checked)}
}

// SessionWFR checks writes-follow-reads for the sessions that carried it:
// an updating operation v of such a session is arbitrated after every
// updating operation x the session had observed before issuing v, and the
// session's own responses never perceive v without (or before) x.
func (w *Witness) SessionWFR() Result {
	checked := 0
	for _, v := range w.H.Events {
		if v.IsReadOnly() || !v.Guarantees.Has(core.WritesFollowReads) {
			continue
		}
		checked++
		for _, r := range w.H.Events {
			if r.Pending || !w.H.SessionOrder(r, v) {
				continue
			}
			for _, x := range w.traceEvents(r) {
				if x == v || x.IsReadOnly() {
					continue
				}
				if w.ArLess(v, x) {
					return Result{Predicate: "WFR(sessions)", Holds: false,
						Detail: fmt.Sprintf("arbitration orders %s before %s, which %s's session had read first", v.Dot, x.Dot, v.Dot)}
				}
				for _, e := range w.H.Events {
					if e.Pending || e.Session != v.Session || !w.inTrace(e, v.Dot) {
						continue
					}
					if !w.inTrace(e, x.Dot) {
						return Result{Predicate: "WFR(sessions)", Holds: false,
							Detail: fmt.Sprintf("%s perceived %s without %s, which the session had read before writing it", e.Dot, v.Dot, x.Dot)}
					}
					if w.tracePos(e, x.Dot) > w.tracePos(e, v.Dot) {
						return Result{Predicate: "WFR(sessions)", Holds: false,
							Detail: fmt.Sprintf("%s perceived %s before %s, which the session had read first", e.Dot, v.Dot, x.Dot)}
					}
				}
			}
		}
	}
	return Result{Predicate: "WFR(sessions)", Holds: true, Detail: fmt.Sprintf("%d guaranteed writes", checked)}
}

// Coverage replays the enforced read-demand vectors: every accepted
// invocation of a read-guarantee session must have computed its response on
// a trace dominating the demand its serving replica proved coverage of
// (frontier dots in exec(e), committed watermark within the committed
// prefix the response saw).
func (w *Witness) Coverage() Result {
	checked := 0
	for _, e := range w.H.Events {
		if e.Pending || e.Guarantees&(core.ReadYourWrites|core.MonotonicReads) == 0 {
			continue
		}
		checked++
		if e.CommittedLen < e.ReadVec.CommitLen {
			return Result{Predicate: "Coverage", Holds: false,
				Detail: fmt.Sprintf("%s answered from committed prefix %d, demand watermark %d", e.Dot, e.CommittedLen, e.ReadVec.CommitLen)}
		}
		for _, d := range e.ReadVec.Frontier {
			if !w.inTrace(e, d) {
				return Result{Predicate: "Coverage", Holds: false,
					Detail: fmt.Sprintf("%s answered without demanded %s in its trace", e.Dot, d)}
			}
		}
	}
	return Result{Predicate: "Coverage", Holds: true, Detail: fmt.Sprintf("%d gated events", checked)}
}
